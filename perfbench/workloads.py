"""Workload table and metric catalogue of the solve benchmark.

Each workload is one closed-loop solve: a single caller runs
``hyperelast solve`` and then ``hyperelast export-fields`` on the
checkpoint it wrote, one at a time, each in a fresh child process.
``--seed`` maps to ``network.seed`` (Fourier frequencies and weight
initialisation); everything else about a workload is fixed here.
The workload names, their descriptions and the metric catalogue are in
BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed at which the phi0 objective value and gradient were recorded in
# references.json.  The gate always runs at this seed, whatever --seed is.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    # arguments of `hyperelast solve` (without --out and network.seed)
    solve_args: tuple
    # per-axis node counts of the export-fields sampling grid
    export_grid: tuple
    # solves a run of --seconds 30 makes; --seconds S makes
    # round(solves * S / 30) of them (at least one), so the sample count of
    # a run does not depend on how busy the machine is
    solves: int
    # export-fields calls on each solve's checkpoint, made in a row in one
    # child; a run's export_s is the median over all its solves' calls
    exports_per_solve: int
    # added to solve_args for the warm-up solve, which ends after one
    # iteration; its checkpoint lets the first exports run before the
    # timed solves
    warmup_args: tuple
    # upper bound on the l2 error printed by `solve`, when the problem has
    # an exact reference field
    l2_max: float = None

    def export_rows(self):
        n = 1
        for d in self.export_grid:
            n *= d
        return n


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="patch_shear",
            solve_args=(
                "--affine", "shear:0.3",
                "--set", "network.hidden=16,16",
                "--set", "network.fourier_features=8",
                "--set", "optimizer.grad_tol=1e-10",
                "--set", "optimizer.max_iters=70",
            ),
            export_grid=(21, 21, 21),
            solves=3,
            exports_per_solve=4,
            warmup_args=("--set", "optimizer.max_iters=1"),
            l2_max=1e-3,
        ),
        Workload(
            name="beam_traction",
            solve_args=(
                "--preset", "nh_cantilever_traction",
                "--set", "optimizer.max_iters=6",
            ),
            export_grid=(21, 21, 21),
            solves=2,
            exports_per_solve=3,
            warmup_args=("--set", "optimizer.max_iters=1"),
        ),
        Workload(
            name="lp_curriculum_export",
            solve_args=(
                "--preset", "lp_cantilever_displacement",
                "--set", "problem.grid=17,5,5",
                "--set", "network.hidden=32,32",
                "--set", "network.fourier_features=16",
                "--set", "curriculum.fractions=0.25,0.5,1.0",
                "--set", "curriculum.stage_iters=15,15,30",
            ),
            export_grid=(81, 21, 21),
            solves=3,
            exports_per_solve=1,
            warmup_args=("--set", "curriculum.stage_iters=1,1,1"),
        ),
    )
}

