"""Problem geometry and sampling.

Box domains with tensor-product Simpson grids, traction patches, point
sets for the three loss-point families (volume, traction faces, strict
interior) and the built-in benchmark presets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import EvenCount, UnknownPreset
from .losses import MASK_TERMS
from .materials import LopezPamies, NeoHookean
from .network import BCEnforcer, DirichletFace
from .reference import affine_solution, uniaxial_oracle

FACE_SIDES = ("lo", "hi")


def simpson_weights_1d(n, h):
    """Composite Simpson weights (h/3)[1, 4, 2, 4, ..., 4, 1] for n odd nodes."""
    if n < 3 or n % 2 == 0:
        raise EvenCount(f"Simpson rule needs an odd node count >= 3, got {n}")
    if h <= 0.0:
        raise ValueError(f"spacing must be positive, got {h}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


@dataclass(frozen=True)
class BoxDomain:
    """The box [0, L1] x [0, L2] x [0, L3] with odd per-axis grid counts
    (Simpson requirement)."""

    lengths: tuple = (1.0, 1.0, 1.0)
    counts: tuple = (9, 9, 9)

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(v) for v in self.lengths))
        object.__setattr__(self, "counts", tuple(int(v) for v in self.counts))
        if any(l <= 0.0 for l in self.lengths):
            raise ValueError(f"lengths must be positive, got {self.lengths}")
        if len(self.counts) != 3:
            raise ValueError(f"grid needs three counts, got {self.counts}")
        for n in self.counts:
            if n < 3 or n % 2 == 0:
                raise EvenCount(f"grid counts must be odd and >= 3, got {self.counts}")


def grid_points(lengths, counts):
    """Nodes of the tensor grid of ``counts`` nodes per axis on the box
    [0, L1] x [0, L2] x [0, L3] of ``lengths``: (X (n, 3) in C order, the
    per-axis spacings).  linspace keeps both endpoints exact.
    """
    axes = [np.linspace(0.0, l, n) for l, n in zip(lengths, counts)]
    X = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return X, [l / (n - 1) for l, n in zip(lengths, counts)]


@dataclass(frozen=True)
class TractionPatch:
    """Traction data on (part of) one box face.

    ``region`` is a predicate over points (..., 3) selecting the loaded
    subset; None means the whole face.  ``traction`` is the nominal
    traction vector in Pa.
    """

    axis: int
    side: str
    traction: tuple
    region: object = None

    def __post_init__(self):
        if self.axis not in (0, 1, 2) or self.side not in FACE_SIDES:
            raise ValueError(f"no such face: axis {self.axis!r}, side {self.side!r}")
        object.__setattr__(self, "traction", tuple(float(t) for t in self.traction))
        if not np.all(np.isfinite(self.traction)):
            raise ValueError("traction must be finite")

    def covers(self, X):
        if self.region is None:
            return np.ones(np.asarray(X).shape[:-1], dtype=bool)
        return np.asarray(self.region(X), dtype=bool)


@dataclass(frozen=True)
class PointSets:
    """All collocation data derived from one tensor grid.

    Rows are the strict-interior nodes, then the surface nodes, each in
    grid (C) order, and every per-row array follows its point.  Each loss
    term sums over all rows with one of the weight vectors, which are zero
    off their family of rows.  The traction boundary is laid out once per
    grid, over F loaded faces in (axis, side) order.
    """

    points: np.ndarray  # (N, 3)
    vol_weights: np.ndarray  # (N,) Simpson volume weights, sum = box volume
    row_weights: np.ndarray  # (N,) 1/N: the mean over all rows
    interior_weights: np.ndarray  # (N,) 1/n on rows [:n_interior], zero after
    traction_weights: np.ndarray  # (N, F) 1/(point-face pairs) on each face, zero off it
    n_interior: int  # rows [:n_interior] are strictly inside, the rest on the surface
    normals: np.ndarray  # (F, 3) outward unit normal of each loaded face
    tbar: np.ndarray  # (N, F, 3) patch traction on each face, zero off it
    load: np.ndarray  # (N, 3) nodal load: sum over faces of traction x surface weight

    @property
    def n_points(self):
        return self.points.shape[0]


def build_point_sets(domain, patches=()):
    """Tensor grid, Simpson volume/surface weights and point families.

    Traction and interior points reuse the volume grid nodes, so one
    network forward pass per node serves every loss term.  The rows are
    ordered interior first.  An edge point lies on two faces and counts
    once per loaded face in the traction mean.  Where patches on one face
    overlap, the first one listed covers the point.
    """
    grid, spacings = grid_points(domain.lengths, domain.counts)
    w1d = [simpson_weights_1d(n, h) for n, h in zip(domain.counts, spacings)]
    vol_w = (
        w1d[0][:, None, None] * w1d[1][None, :, None] * w1d[2][None, None, :]
    ).ravel()

    interior = np.zeros(domain.counts, dtype=bool)
    interior[1:-1, 1:-1, 1:-1] = True
    order = np.concatenate([np.flatnonzero(interior), np.flatnonzero(~interior)])
    row = np.argsort(order).reshape(domain.counts)  # grid index -> row
    points = grid[order]

    faces = [
        (axis, side) for axis in range(3) for side in FACE_SIDES
        if any(p.axis == axis and p.side == side for p in patches)
    ]
    n = points.shape[0]
    normals = np.zeros((len(faces), 3))
    tbar = np.zeros((n, len(faces), 3))
    on_face = np.zeros((n, len(faces)))
    load = np.zeros((n, 3))
    for f, (axis, side) in enumerate(faces):
        sl = [slice(None)] * 3
        sl[axis] = 0 if side == "lo" else domain.counts[axis] - 1
        idx = row[tuple(sl)].ravel()
        t = np.zeros((idx.size, 3))
        assigned = np.zeros(idx.size, dtype=bool)
        for p in patches:
            if p.axis == axis and p.side == side:
                inside = p.covers(points[idx]) & ~assigned
                t[inside] = p.traction
                assigned |= inside
        tangent = [a for a in range(3) if a != axis]
        sw = (w1d[tangent[0]][:, None] * w1d[tangent[1]][None, :]).ravel()
        normals[f, axis] = 1.0 if side == "hi" else -1.0
        tbar[idx, f] = t
        on_face[idx, f] = 1.0
        load[idx] += t * sw[:, None]
    return PointSets(
        points=points,
        vol_weights=vol_w[order],
        row_weights=np.full(n, 1.0 / n),
        interior_weights=interior.ravel()[order] / interior.sum(),
        traction_weights=on_face / on_face.sum(),
        n_interior=int(interior.sum()),
        normals=normals,
        tbar=tbar,
        load=load,
    )


@dataclass(frozen=True)
class ProblemSpec:
    """Complete description of one boundary-value problem."""

    name: str
    domain: BoxDomain
    material: object
    enforcer: BCEnforcer
    patches: tuple = ()
    mask: str = "full"
    reference: object = None  # callable X -> exact displacement, if known

    def __post_init__(self):
        if self.mask not in MASK_TERMS:
            raise ValueError(f"mask must be one of {tuple(MASK_TERMS)}")
        if not self.enforcer.faces:
            raise ValueError("at least one essential constraint is required")

    def point_sets(self):
        return build_point_sets(self.domain, self.patches)


def _zero_patches(axes_sides):
    return [TractionPatch(axis=a, side=s, traction=(0.0, 0.0, 0.0)) for a, s in axes_sides]


def affine_enforcer(domain, grad):
    """All six faces constrained to u = grad X."""
    faces = tuple(
        DirichletFace(axis=a, side=s) for a in range(3) for s in FACE_SIDES
    )
    return BCEnforcer(
        lengths=domain.lengths,
        faces=faces,
        lift_lin=tuple(tuple(row) for row in np.asarray(grad, dtype=np.float64)),
    )


def affine_dirichlet_problem(F0, material, grid=None, name="affine_dirichlet"):
    """Unit-cube patch test: u = (F0 - I) X prescribed on all six faces.

    The exact solution is the affine field itself (constant stress is
    divergence free), attached as the problem's reference.
    """
    exact = affine_solution(F0, material)  # raises for det F0 <= 0
    domain = _cube_domain(grid)
    enforcer = affine_enforcer(domain, exact.F0 - np.eye(3))
    return ProblemSpec(name, domain, material, enforcer, reference=exact.displacement)


def affine_problem(spec, grid=None):
    """Neo-Hookean affine patch test from a ``problem.affine`` value.

    ``"shear:G"`` poses F0 = I + G e1 (x) e2 and ``"stretch:a,b,c"`` poses
    F0 = diag(a, b, c); without the part after the colon G = 0.3 and the
    stretches are 1.1,1,1.  The grid defaults to 9^3 nodes.
    """
    kind, _, arg = spec.partition(":")

    def number(token):
        try:
            return float(token)
        except ValueError:
            raise ValueError(
                f"problem.affine {kind} value '{token}' is not a number (in '{spec}')"
            ) from None

    if kind == "shear":
        gamma = number(arg or 0.3)
        F0 = np.eye(3)
        F0[0, 1] = gamma
        name = f"affine_shear_{gamma:g}"
    elif kind == "stretch":
        diag = [number(v) for v in (arg or "1.1,1,1").split(",")]
        if len(diag) != 3:
            raise ValueError(f"problem.affine stretch needs three stretches a,b,c, got '{arg}'")
        F0 = np.diag(diag)
        name = "affine_stretch_" + "x".join(f"{d:g}" for d in diag)
    else:
        raise ValueError(f"problem.affine kind must be shear or stretch, got '{kind}'")
    return affine_dirichlet_problem(
        F0, NeoHookean(lam=577.0, mu=385.0), grid or (9, 9, 9), name=name
    )


def _beam_domain(grid):
    return BoxDomain(lengths=(4.0, 1.0, 1.0), counts=grid or (25, 9, 9))


def _cube_domain(grid):
    return BoxDomain(lengths=(1.0, 1.0, 1.0), counts=grid or (15, 15, 15))


def _nh_cantilever_traction(grid):
    domain = _beam_domain(grid)
    enforcer = BCEnforcer(
        lengths=domain.lengths,
        faces=(DirichletFace(axis=0, side="lo"),),
    )
    patches = [TractionPatch(axis=0, side="hi", traction=(0.0, -5.0, 0.0))]
    patches += _zero_patches([(1, "lo"), (1, "hi"), (2, "lo"), (2, "hi")])
    return ProblemSpec(
        name="nh_cantilever_traction",
        domain=domain,
        material=NeoHookean(lam=577.0, mu=385.0),
        enforcer=enforcer,
        patches=tuple(patches),
    )


def _lp_cantilever_displacement(grid):
    domain = _beam_domain(grid)
    L = domain.lengths[0]
    # u = 0 at X1 = 0, u = (0, -1, 0) at X1 = L; linear interpolation in X1
    lin = np.zeros((3, 3))
    lin[1, 0] = -1.0 / L
    enforcer = BCEnforcer(
        lengths=domain.lengths,
        faces=(
            DirichletFace(axis=0, side="lo"),
            DirichletFace(axis=0, side="hi"),
        ),
        lift_lin=tuple(tuple(row) for row in lin),
    )
    patches = _zero_patches([(1, "lo"), (1, "hi"), (2, "lo"), (2, "hi")])
    return ProblemSpec(
        name="lp_cantilever_displacement",
        domain=domain,
        material=LopezPamies(alphas=(1.0, -2.0), mus=(100.0, 50.0), lam=100.0),
        enforcer=enforcer,
        patches=tuple(patches),
    )


def _nh_simple_shear(grid):
    F0 = np.eye(3)
    F0[0, 1] = 0.5  # `--affine shear:G` poses any other shear
    return affine_dirichlet_problem(
        F0, NeoHookean(lam=577.0, mu=385.0), grid, name="nh_simple_shear"
    )


def _nh_localized_traction(grid):
    domain = _cube_domain(grid)
    enforcer = BCEnforcer(
        lengths=domain.lengths,
        faces=(DirichletFace(axis=0, side="lo"),),
    )

    def centered_square(X, half=0.1 + 1e-12):  # epsilon admits edge nodes
        X = np.asarray(X)
        return (np.abs(X[..., 1] - 0.5) <= half) & (np.abs(X[..., 2] - 0.5) <= half)

    patches = [
        TractionPatch(axis=0, side="hi", traction=(300.0, 0.0, 0.0), region=centered_square),
        TractionPatch(axis=0, side="hi", traction=(0.0, 0.0, 0.0)),
    ]
    patches += _zero_patches([(1, "lo"), (1, "hi"), (2, "lo"), (2, "hi")])
    return ProblemSpec(
        name="nh_localized_traction",
        domain=domain,
        material=NeoHookean(lam=577.0, mu=385.0),
        enforcer=enforcer,
        patches=tuple(patches),
    )


def _uniaxial_traction(name, material, grid):
    """Unit cube of ``material`` on rollers (u_a = 0 on the lo face of
    axis a), pulled on X1 = 1 by the nominal stress P11 of a uniaxial
    stretch of 1.1 and free on X2 = 1 and X3 = 1; the homogeneous
    uniaxial state is exact."""
    exact = uniaxial_oracle(1.1, material)
    domain = BoxDomain(counts=grid or (9, 9, 9))
    enforcer = BCEnforcer(
        lengths=domain.lengths,
        faces=tuple(DirichletFace(axis=a, side="lo", components=(a,)) for a in range(3)),
    )
    patches = (TractionPatch(axis=0, side="hi", traction=(exact.P0[0, 0], 0.0, 0.0)),
               *_zero_patches([(1, "hi"), (2, "hi")]))
    return ProblemSpec(name, domain, material, enforcer, patches,
                       reference=exact.displacement)


_PRESETS = {
    "nh_cantilever_traction": _nh_cantilever_traction,
    "lp_cantilever_displacement": _lp_cantilever_displacement,
    "nh_simple_shear": _nh_simple_shear,
    "nh_localized_traction": _nh_localized_traction,
    "nh_uniaxial_traction": partial(
        _uniaxial_traction, "nh_uniaxial_traction", NeoHookean(lam=577.0, mu=385.0)),
    "lp_uniaxial_traction": partial(
        _uniaxial_traction, "lp_uniaxial_traction",
        LopezPamies(alphas=(1.0, -2.0), mus=(100.0, 50.0), lam=100.0)),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name, grid=None):
    """Construct one of the built-in benchmark problems.

    ``grid`` overrides the per-axis node counts.
    """
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset '{name}', expected one of {PRESET_NAMES}"
        ) from None
    if grid is not None:
        grid = tuple(int(g) for g in grid)
    return builder(grid)
