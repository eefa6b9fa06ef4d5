"""Span arithmetic and metric aggregation (pure Python, no numpy).

A span is the list ``[name, t0, t1, parent, n0, n1, extra]`` written by
:class:`tracer.Recorder`: times in seconds, ``parent`` the index of the
enclosing span (-1 for a root), ``n0``/``n1`` the tape length at both
ends (-1 when no evaluation tape was live) and ``extra`` a dict or None.
"""

from __future__ import annotations

from collections import defaultdict

NAME, T0, T1, PARENT, N0, N1, EXTRA = range(7)

OBJECTIVE_SPANS = ("solver.objective.begin", "solver.objective.call")

# percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values):
    values = sorted(values)
    if not values:
        return None
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return 0.5 * (values[mid - 1] + values[mid])


def _rank(p, n):
    """Nearest rank ceil(p n / 100), in integers so 99.9 % stays exact."""
    return -(-round(p * 10) * n // 1000)


def tail_percentile(n):
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile."""
    values = sorted(values)
    return float(values[max(1, _rank(p, len(values))) - 1])


def children_of(spans):
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans, kids=None):
    """Duration of each span minus the part its children cover."""
    kids = children_of(spans) if kids is None else kids
    out = []
    for i, s in enumerate(spans):
        child = [(spans[c][T0], spans[c][T1]) for c in kids.get(i, ())]
        out.append((s[T1] - s[T0]) - covered(child, s[T0], s[T1]))
    return out


def subtree(kids, root):
    stack, out = [root], []
    while stack:
        i = stack.pop()
        out.append(i)
        stack.extend(kids.get(i, ()))
    return out


def evaluations(spans, kids=None):
    """Objective calls that ran a training forward pass, in call order.

    Each is (span index, indices of its subtree).  A call counts when a
    ``network.fields`` span sits below it.
    """
    kids = children_of(spans) if kids is None else kids
    out = []
    for i, s in enumerate(spans):
        if s[NAME] not in OBJECTIVE_SPANS:
            continue
        sub = subtree(kids, i)
        if any(spans[j][NAME] == "network.fields" for j in sub):
            out.append((i, sub))
    return out


def first_objective(spans):
    for s in spans:
        if s[NAME] in OBJECTIVE_SPANS:
            return s
    return None


def solve_timings(spans):
    """(setup_s, solve_s, eval durations in ms) of one untraced solve.

    Span 0 is the root the child opens around ``cli.main``.
    """
    root, first = spans[0], first_objective(spans)
    if first is None:
        return None, None, []
    evals = [(spans[i][T1] - spans[i][T0]) * 1e3 for i, _ in evaluations(spans)]
    return first[T0] - root[T0], root[T1] - first[T0], evals


# ---------------------------------------------------------------------------
# per-layer metrics of one traced solve (+ its export)
# ---------------------------------------------------------------------------

KINEMATICS = ("materials.displacement_gradient", "materials.deformation_gradient")
MATERIAL_SPANS = KINEMATICS + ("materials.stress", "materials.psi")

# per-evaluation self-time metrics: metric -> span names summed
EVAL_SELF_MS = {
    "network.forward_ms": ("network.forward",),
    "network.outputs_ms": ("network.raw_outputs",),
    "network.bc_ms": ("network.fields", "network.bc_apply"),
    "materials.kinematics_ms": KINEMATICS,
    "materials.stress_ms": ("materials.stress",),
    "materials.psi_ms": ("materials.psi",),
    "losses.assemble_ms": ("losses.assemble",),
    "autodiff.reverse_ms": ("autodiff.reverse",),
    "solver.objective_self_ms": OBJECTIVE_SPANS,
}

# whole-run inclusive totals over the solve and export children
RUN_TOTAL_MS = {
    "network.features_ms": ("network.features",),
    "network.bc_jets_ms": ("network.bc_jets",),
    "bvp.point_sets_ms": ("bvp.point_sets",),
    "solver.evaluate_fields_ms": ("solver.evaluate_fields",),
    "exports.fields_csv_ms": ("exports.fields_csv",),
    "exports.vtk_ms": ("exports.vtk",),
    "exports.history_ms": ("exports.history",),
    "exports.checkpoint_ms": ("exports.checkpoint",),
}

RUN_BYTES = {
    "exports.fields_csv_bytes": "exports.fields_csv",
    "exports.vtk_bytes": "exports.vtk",
}


def _raised(span, exc_name):
    extra = span[EXTRA] or {}
    return exc_name in extra.get("exc", ())


def _outermost(spans, indices, names):
    """Spans in ``indices`` named in ``names`` with no such ancestor."""
    chosen = set(i for i in indices if spans[i][NAME] in names)
    out = []
    for i in chosen:
        p = spans[i][PARENT]
        while p >= 0 and p not in chosen:
            p = spans[p][PARENT]
        if p < 0:
            out.append(i)
    return out


def _nodes(spans, idx):
    s = spans[idx]
    return s[N1] - s[N0] if s[N0] >= 0 and s[N1] >= 0 else 0


def layer_metrics(solve_spans, export_spans, iterations, tape_ops):
    """Per-layer metrics of one traced solve child and its export child.

    ``iterations`` is the number of accepted iterations (history rows);
    ``tape_ops`` the op kinds reported one by one, the rest summed into
    ``other``.  Returns {metric: value}; metrics whose spans never
    appeared are absent, so the caller can tell them from zeros.
    """
    out = {}
    kids = children_of(solve_spans)
    selfs = self_times(solve_spans, kids)
    evals = evaluations(solve_spans, kids)
    names_seen = set(s[NAME] for s in solve_spans) | set(s[NAME] for s in export_spans)

    for metric, names in EVAL_SELF_MS.items():
        if not any(n in names_seen for n in names):
            continue
        per_eval = [
            sum(selfs[j] for j in sub if solve_spans[j][NAME] in names) * 1e3
            for _, sub in evals
        ]
        out[metric] = median(per_eval)

    gflop = [
        solve_spans[j][EXTRA]["gflop"]
        for _, sub in evals for j in sub
        if solve_spans[j][NAME] == "network.forward"
        and "gflop" in (solve_spans[j][EXTRA] or {})
    ]
    if gflop:
        out["network.forward_gflop"] = median(gflop)

    # tape nodes, from evaluations that reached the reverse sweep
    totals, net, mat, ops = [], [], [], defaultdict(list)
    for _, sub in evals:
        rev = [j for j in sub if solve_spans[j][NAME] == "autodiff.reverse"
               and "tape_len" in (solve_spans[j][EXTRA] or {})]
        if not rev:
            continue
        extra = solve_spans[rev[0]][EXTRA]
        totals.append(extra["tape_len"])
        net.append(sum(_nodes(solve_spans, j)
                       for j in _outermost(solve_spans, sub, ("network.fields",))))
        mat.append(sum(_nodes(solve_spans, j)
                       for j in _outermost(solve_spans, sub, MATERIAL_SPANS)))
        other = 0
        for op, count in extra["ops"].items():
            if op in tape_ops:
                ops[op].append(count)
            else:
                other += count
        for op in tape_ops:
            if op not in extra["ops"]:
                ops[op].append(0)
        ops["other"].append(other)
    if totals:
        out["autodiff.tape_nodes"] = median(totals)
        out["autodiff.tape_nodes.network"] = median(net)
        out["autodiff.tape_nodes.materials"] = median(mat)
        out["autodiff.tape_nodes.losses"] = median(
            [t - a - b for t, a, b in zip(totals, net, mat)]
        )
        for op, counts in ops.items():
            out[f"autodiff.tape_nodes.op.{op}"] = median(counts)

    if "materials.deformation_gradient" in names_seen:
        inverted = near = 0
        begin_min = []
        for i, sub in evals:
            dg = [solve_spans[j] for j in sub
                  if solve_spans[j][NAME] == "materials.deformation_gradient"]
            if any(_raised(s, "InvertedState") for s in dg):
                inverted += 1
            js = [s[EXTRA]["min_J"] for s in dg if "min_J" in (s[EXTRA] or {})]
            if js and min(js) < 0.05:
                near += 1
            if js and solve_spans[i][NAME] == "solver.objective.begin":
                begin_min.append(min(js))
        out["materials.inverted_evals"] = inverted
        out["materials.near_inversion_evals"] = near
        if begin_min:
            out["materials.min_J"] = min(begin_min)

    n_begin = sum(1 for i, _ in evals if solve_spans[i][NAME] == "solver.objective.begin")
    n_probe = len(evals) - n_begin
    out["solver.begin_calls"] = n_begin
    out["solver.probe_calls"] = n_probe
    out["optim.iters"] = iterations
    if iterations:
        out["optim.probes_per_iter"] = n_probe / iterations
    if evals:
        out["optim.useful_eval_ratio"] = iterations / len(evals)

    if "optim.wolfe" in names_seen:
        out["optim.line_search_failures"] = sum(
            1 for s in solve_spans
            if s[NAME] == "optim.wolfe" and _raised(s, "LineSearchFailure")
        )
    if "optim.lbfgs" in names_seen and iterations:
        # optimizer self time: lbfgs and line-search spans minus everything
        # they call, i.e. minus the objective calls below them
        own = sum(selfs[i] for i, s in enumerate(solve_spans)
                  if s[NAME] in ("optim.lbfgs", "optim.wolfe"))
        out["optim.self_ms_per_iter"] = own * 1e3 / iterations

    both = (solve_spans, export_spans)
    for metric, names in RUN_TOTAL_MS.items():
        if any(n in names_seen for n in names):
            out[metric] = sum((s[T1] - s[T0]) * 1e3
                              for spans in both for s in spans if s[NAME] in names)
    if "bvp.point_sets" in names_seen:
        out["bvp.point_sets_calls"] = sum(
            1 for s in solve_spans if s[NAME] == "bvp.point_sets"
        )
    for metric, name in RUN_BYTES.items():
        sizes = [(s[EXTRA] or {}).get("bytes") for spans in both for s in spans
                 if s[NAME] == name]
        sizes = [b for b in sizes if b is not None]
        if sizes:
            out[metric] = sum(sizes)

    # time in the root spans (around cli.main) that no wrapped call covers
    out["trace.unattributed_ms"] = sum(
        self_times(spans)[0] * 1e3 for spans in both if spans
    )
    return out
