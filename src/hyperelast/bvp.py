"""Problem geometry and sampling.

Box domains with tensor-product Simpson grids, traction patches, point
sets for the three loss-point families (volume, traction faces, strict
interior) and the built-in benchmark presets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvenCount, UnknownPreset
from .losses import MASK_TERMS
from .materials import LopezPamies, NeoHookean
from .network import BCEnforcer, DirichletFace

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

    def axes(self):
        """Per-axis node coordinates; linspace keeps both endpoints exact."""
        return [np.linspace(0.0, l, n) for l, n in zip(self.lengths, self.counts)]

    def spacings(self):
        return [l / (n - 1) for l, n in zip(self.lengths, self.counts)]


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

    The traction boundary is laid out once per grid, over F loaded faces
    in (axis, side) order, so the loss only contracts these arrays.
    """

    points: np.ndarray  # (N, 3)
    vol_weights: np.ndarray  # (N,), sum = box volume
    interior_idx: np.ndarray  # strict-interior flat indices
    boundary_idx: np.ndarray  # flat indices on the box surface (the complement)
    normals: np.ndarray  # (F, 3) outward unit normal of each loaded face
    tbar: np.ndarray  # (N, F, 3) patch traction on each face, zero off it
    member: np.ndarray  # (N, F, 1) 1 where the point lies on the face
    load: np.ndarray  # (N, 3) nodal load: sum over faces of traction x surface weight

    @property
    def n_points(self):
        return self.points.shape[0]

    @property
    def n_traction(self):
        """(point, face) pairs: an edge point counts once per loaded face."""
        return int(self.member.sum())


def build_point_sets(domain, patches=()):
    """Tensor grid, Simpson volume/surface weights and point families.

    Traction and interior points reuse the volume grid nodes, so one
    network forward pass per node serves every loss term.  Where patches
    on one face overlap, the first one listed covers the point.
    """
    axes = domain.axes()
    w1d = [
        simpson_weights_1d(n, h) for n, h in zip(domain.counts, domain.spacings())
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    vol_w = (
        w1d[0][:, None, None] * w1d[1][None, :, None] * w1d[2][None, None, :]
    ).ravel()

    n0, n1, n2 = domain.counts
    flat = np.arange(n0 * n1 * n2).reshape(n0, n1, n2)
    interior_idx = flat[1:-1, 1:-1, 1:-1].ravel()
    on_boundary = np.ones(flat.shape, dtype=bool)
    on_boundary[1:-1, 1:-1, 1:-1] = False
    boundary_idx = flat[on_boundary]

    faces = [
        (axis, side) for axis in range(3) for side in FACE_SIDES
        if any(p.axis == axis and p.side == side for p in patches)
    ]
    n = points.shape[0]
    normals = np.zeros((len(faces), 3))
    tbar = np.zeros((n, len(faces), 3))
    member = np.zeros((n, len(faces), 1))
    load = np.zeros((n, 3))
    for f, (axis, side) in enumerate(faces):
        sl = [slice(None)] * 3
        sl[axis] = 0 if side == "lo" else domain.counts[axis] - 1
        idx = flat[tuple(sl)].ravel()
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
        member[idx, f] = 1.0
        load[idx] += t * sw[:, None]
    return PointSets(
        points=points,
        vol_weights=vol_w,
        interior_idx=interior_idx,
        boundary_idx=boundary_idx,
        normals=normals,
        tbar=tbar,
        member=member,
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
    F0 = np.asarray(F0, dtype=np.float64)
    if np.linalg.det(F0) <= 0.0:
        raise ValueError(f"det F0 = {np.linalg.det(F0):.3e} <= 0")
    domain = _cube_domain(grid)
    G = F0 - np.eye(3)
    ref = lambda X, _g=G: np.einsum("ij,...j->...i", _g, X)  # noqa: E731
    return ProblemSpec(
        name=name,
        domain=domain,
        material=material,
        enforcer=affine_enforcer(domain, G),
        reference=ref,
    )


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


_PRESETS = {
    "nh_cantilever_traction": _nh_cantilever_traction,
    "lp_cantilever_displacement": _lp_cantilever_displacement,
    "nh_simple_shear": _nh_simple_shear,
    "nh_localized_traction": _nh_localized_traction,
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
