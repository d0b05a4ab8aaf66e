"""Periodic computational box, scalar fields, and exact spectral operators.

The box [-L, L)^N (N in {1, 2}) with M uniform points per dimension stands in
for the whole space; everything downstream assumes the data it touches decays
well inside the boundary, and the helpers here let callers assert that.

Every differential operator is a Fourier multiplier on the torus that a
caller reads from ``_spectrum`` (i xi_j in ``div``, |xi|^2 in ``k2m`` at
m = 1) and applies to its own transform, so the operators are exact on
band-limited data and conservation identities (zero integral of any
divergence, adjointness of gradient and divergence) hold to round-off.

Transform convention: every field is real, so the operators transform with
``rfft``/``irfft`` (numpy's ``rfftn``/``irfftn`` over both axes in 2-D and
the bitwise-equal ``rfft``/``irfft`` in 1-D; forward unnormalized, inverse
carrying 1/M^N) and work on the half spectrum of shape
grid.shape[:-1] + (M/2 + 1,): full FFT order on every axis but the last,
which keeps k = 0 .. M/2.  Wavevectors are pi*k/L for k = -M/2 .. M/2-1.
``rfft`` and ``irfft`` here are the package's only transforms, and
``_spectrum``, which tables the multipliers of one (grid, m) once, read-only,
is the only place that knows the wavenumber layout.  ``_coef_divergence``,
the one (-1)^(m-1) div(coef grad Delta^(m-1) u) of the solver and the
Duhamel correction, is the only reader of its gradient chain; it and the
table's ``rhs0`` are the only places that apply the sign (-1)^(m-1).  A
sum over the half spectrum weights the last axis's 0 and M/2 columns once
and every other column twice (Hermitian symmetry).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from ._validate import require_int, require_real, require_reals

__all__ = [
    "GridSpec",
    "Field",
    "GridMismatchError",
    "DecayAssertionError",
    "make_grid",
    "coordinates",
    "radius",
    "rfft",
    "irfft",
    "integrate",
    "inner",
    "l2_norm",
    "spectral_tail_fraction",
    "boundary_shell_max",
    "assert_boundary_decay",
    "bump",
    "random_bumps",
    "write_phf1",
    "read_phf1",
]


class GridMismatchError(ValueError):
    """Two operands live on different grids."""


class DecayAssertionError(RuntimeError):
    """A field carries non-negligible mass in the boundary shell |x| > 0.9 L."""


@dataclass(frozen=True)
class GridSpec:
    """Periodic box [-L, L)^N sampled with M points per dimension.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    half_width : float
        L in [1e-6, 1e6]; the box is [-L, L)^N.
    points_per_dim : int
        M, even and >= 8.  Powers of two keep the FFTs fast.
    """

    dim: int
    half_width: float
    points_per_dim: int

    def __post_init__(self):
        require_int("dim", self.dim, choices=(1, 2))
        require_real("half_width", self.half_width, "positive")
        # far inside the float range: the tables square L and raise pi M / 2L to the power 2m
        if not 1e-6 <= self.half_width <= 1e6:
            raise ValueError(f"half_width must lie in [1e-6, 1e6], got {self.half_width!r}")
        require_int("points_per_dim", self.points_per_dim)
        m = self.points_per_dim
        if m % 2 != 0 or m < 8:
            raise ValueError("points_per_dim must be even >= 8")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.points_per_dim

    @property
    def shape(self) -> tuple:
        return (self.points_per_dim,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim


def make_grid(dim: int, half_width: float, points_per_dim: int) -> GridSpec:
    """Validated grid constructor; see :class:`GridSpec` for the invariants."""
    return GridSpec(dim=dim, half_width=half_width, points_per_dim=points_per_dim)


def _freeze(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Field:
    """Real scalar field sampled on a grid; immutable after construction."""

    grid: GridSpec
    values: np.ndarray
    time_tag: float | None = None

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} does not match grid {self.grid.shape}")
        # the method, not np.all: its dispatch would be half the cost of a
        # field, and correction_phi makes one per quadrature node
        if not np.isfinite(self.values).all():
            raise FloatingPointError("field contains non-finite values")
        object.__setattr__(self, "values", _freeze(self.values))


# ---------------------------------------------------------------------------
# cached per-grid geometry


@lru_cache(maxsize=64)
def _axis_coordinate(grid: GridSpec) -> np.ndarray:
    m, length = grid.points_per_dim, grid.half_width
    return _freeze(-length + grid.dx * np.arange(m))


def _broadcast_axis(arr: np.ndarray, axis: int, dim: int) -> np.ndarray:
    shape = [1] * dim
    shape[axis] = arr.size
    return arr.reshape(shape)


def coordinates(grid: GridSpec) -> list:
    """Coordinate arrays x_i, each broadcastable to the grid shape."""
    ax = _axis_coordinate(grid)
    return [_broadcast_axis(ax, i, grid.dim) for i in range(grid.dim)]


def radius(grid: GridSpec) -> np.ndarray:
    """|x| on the grid."""
    r2 = sum(x**2 for x in coordinates(grid))
    return np.sqrt(np.broadcast_to(r2, grid.shape))


@lru_cache(maxsize=64)
def _shell_mask(grid: GridSpec, shell: float) -> np.ndarray:
    """Read-only boolean mask of the shell |x| > shell * L."""
    return _freeze(radius(grid) > shell * grid.half_width, bool)


class _Spectrum(NamedTuple):
    """Read-only half-spectrum multipliers of one (grid, m)."""

    grid: GridSpec
    m: int
    chain: tuple  # i xi_j (-|xi|^2)^(m-1) per axis, Nyquist zeroed
    div: tuple  # i xi_j per axis, Nyquist zeroed (broadcastable)
    k2m: np.ndarray  # |xi|^(2m)
    band: np.ndarray  # 2/3-rule mask, True on retained modes
    w_hi: np.ndarray  # |xi|^(2(m-1)) times the Parseval weight
    w_lo: np.ndarray  # |xi|^(2(m-2)) times the Parseval weight (0 for m < 2)
    # for a coefficient of exactly 1, where the products are the chain g itself:
    rhs0: np.ndarray  # (-1)^(m-1) sum_j div_j chain_j, real: (-1)^(m-1) div g = rhs0 u_hat
    w_g: np.ndarray  # the Parseval weight times sum_j |chain_j|^2: int |g|^2 = sum w_g |u_hat|^2


def _parseval(grid: GridSpec) -> np.ndarray:
    """The Parseval weight cell_volume / M^N along the last axis of the half
    spectrum, with the Hermitian multiplicity: 1 on its 0 and M/2 columns,
    2 on the others."""
    mult = np.full(grid.points_per_dim // 2 + 1, 2.0)
    mult[[0, -1]] = 1.0
    return grid.cell_volume / grid.points_per_dim**grid.dim * mult


@lru_cache(maxsize=64)
def _spectrum(grid: GridSpec, m: int) -> _Spectrum:
    """The multipliers of order m on the half spectrum, built on first use.

    Every axis takes its wavenumbers pi*k/L and indices k from
    ``np.fft.fftfreq`` in FFT order; the last axis keeps k = 0 .. M/2 only.
    ``div`` and ``chain`` zero each axis's Nyquist index k = -M/2, whose mode
    has no partner, so that odd-order derivatives of real fields stay real;
    ``band`` keeps |k| <= M/3 on every axis.  The weights carry
    ``_parseval(grid)``.  ``rhs0`` and ``w_g`` are formed from the frozen
    ``div`` and ``chain``, so their Nyquist indices stay zeroed; each
    div_j chain_j is real, the product of two imaginary multipliers.
    """
    n, h = grid.points_per_dim, grid.points_per_dim // 2 + 1
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx)
    xi_odd = xi.copy()
    xi_odd[n // 2] = 0.0
    keep = np.abs(np.rint(np.fft.fftfreq(n) * n)) <= n // 3

    def axis(a, i):  # a along axis i, cut to the half spectrum on the last
        return _broadcast_axis(a[:h] if i == grid.dim - 1 else a, i, grid.dim)

    k2 = sum(axis(xi, i) ** 2 for i in range(grid.dim))
    div = [1j * axis(xi_odd, i) for i in range(grid.dim)]
    band = reduce(np.logical_and, (axis(keep, i) for i in range(grid.dim)))
    lap = (-k2) ** (m - 1)
    parseval = _parseval(grid)
    w_lo = parseval * k2 ** (m - 2) if m >= 2 else np.zeros_like(k2)
    chain = tuple(_freeze(d * lap, complex) for d in div)
    div = tuple(_freeze(d, complex) for d in div)
    sign = 1.0 if m % 2 == 1 else -1.0  # (-1)^(m-1)
    return _Spectrum(
        grid=grid,
        m=m,
        chain=chain,
        div=div,
        k2m=_freeze(k2**m),
        band=_freeze(band, bool),
        w_hi=_freeze(parseval * k2 ** (m - 1)),
        w_lo=_freeze(w_lo),
        rhs0=_freeze(sign * sum(d * c for d, c in zip(div, chain)).real),
        w_g=_freeze(parseval * sum(c.real**2 + c.imag**2 for c in chain)),
    )


@lru_cache(maxsize=64)
def _rows_spectrum(grid: GridSpec, m: int, rows: int) -> _Spectrum:
    """``_spectrum(grid, m)`` with the multipliers that act on whole spectra
    tiled over a leading axis of ``rows`` rows, for a batch of that many.

    Operands of one shape keep numpy's elementwise loops off their
    broadcasting path, which takes about twice as long per call at M = 256.
    The Parseval weights stay one row wide: they enter per-row dot products;
    so does ``rhs0``, which the solver applies to unit rows only, and
    ``band``, which cuts one summed spectrum.
    """
    spec = _spectrum(grid, m)

    def tile(a):  # a view for a batch of one
        return _freeze(np.broadcast_to(a, (rows,) + a.shape), a.dtype)

    return spec._replace(
        chain=tuple(tile(c) for c in spec.chain),
        div=tuple(tile(d) for d in spec.div),
        k2m=tile(spec.k2m),
    )


def _column(values: list, dim: int):
    """One value per row as a column against arrays with ``dim`` trailing
    axes, or the shared float itself when every row has the same value: a
    product with either has the same bits, and numpy's scalar path is the
    cheaper one."""
    if values.count(values[0]) == len(values):
        return values[0]
    return np.array(values, dtype=float).reshape((len(values),) + (1,) * dim)


# ---------------------------------------------------------------------------
# spectral operators


def rfft(grid: GridSpec, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum of a real grid array (unnormalized), over its trailing
    grid.dim axes: leading axes index a batch of rows.

    ``out``, a complex array of the result's shape, receives the spectrum
    and is returned; the bits are those of a fresh result.  A caller that
    transforms at every step hands in the same array each time, so the step
    touches no newly mapped memory.
    """
    if grid.dim == 1:  # the same transform as rfftn, minus its n-d set-up
        return np.fft.rfft(values, out=out)
    return np.fft.rfftn(values, s=grid.shape, axes=(-2, -1), out=out)


def irfft(grid: GridSpec, values_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real grid array of a half spectrum; the inverse of ``rfft``.

    ``out``, a real array of the result's shape, receives the values and is
    returned, with the bits of a fresh result.  In 2-D numpy still allocates
    its own complex stage of the inverse.
    """
    if grid.dim == 1:
        return np.fft.irfft(values_hat, n=grid.points_per_dim, out=out)
    return np.fft.irfftn(values_hat, s=grid.shape, axes=(-2, -1), out=out)


def _row_sums(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> list:
    """Per row of b, the sum of a * b over the row, a broadcasting to b.
    ``out``, shaped like b (it may be a or b), receives the products.

    One numpy pairwise sum per row of the flattened products, in one call
    for the whole batch: its bits do not depend on the rows beside it, nor
    on the thread count, where BLAS's dot product splits a long sum across
    its threads."""
    np.multiply(a, b, out=out)
    return np.add.reduce(out.reshape(len(out), -1), axis=1).tolist()


def _coef_divergence(spec: _Spectrum, coef: np.ndarray, u_hat: np.ndarray, out: np.ndarray,
                     s: np.ndarray, g: np.ndarray, p: np.ndarray):
    """The package's one (-1)^(m-1) div(coef grad Delta^(m-1) u), for the
    order m of ``spec`` (the table of ``_rows_spectrum``), one row per row of
    coef and u_hat = rfft(u): writes to ``out`` the signed divergence
    (-1)^(m-1) div p on the half spectrum of the products p = coef g with
    g = grad Delta^(m-1) u, and returns per row the flux int |p|^2 and the
    dissipation integrand int coef |g|^2 = int p . g.

    The axes stream through the work arrays, the half spectrum ``s`` and
    the grid arrays ``g`` and ``p`` (shaped like u_hat and coef): g_j, then
    p_j = coef g_j, then axis j's terms of the integrals and of the
    divergence, so only one g, one p and one spectrum are live.  Each
    integral is a sum over its own row, in axis order, so that a row's
    value does not depend on the batch around it.  The sign goes on last,
    by an exact negation of the sum at even m.
    """
    grid, rows = spec.grid, len(u_hat)
    flux, diss = [0.0] * rows, [0.0] * rows
    out.fill(0.0)
    for chain, div in zip(spec.chain, spec.div):
        irfft(grid, np.multiply(chain, u_hat, out=s), out=g)
        np.multiply(coef, g, out=p)
        diss = [d + x for d, x in zip(diss, _row_sums(p, g, g))]
        rfft(grid, p, out=s)
        flux = [f + x for f, x in zip(flux, _row_sums(p, p, p))]
        out += np.multiply(div, s, out=s)
    if spec.m % 2 == 0:
        np.negative(out, out=out)
    vol = grid.cell_volume
    return [vol * f for f in flux], [vol * d for d in diss]


def integrate(f: Field) -> float:
    """∫ f dx over the box: dx^N times the sample sum (exact on the torus
    for trigonometric polynomials)."""
    return float(f.grid.cell_volume * np.sum(f.values))


def inner(f: Field, g: Field) -> float:
    """Plain L^2 pairing over the box."""
    if f.grid != g.grid:
        raise GridMismatchError("inner product of fields on different grids")
    return float(f.grid.cell_volume * np.sum(f.values * g.values))


def l2_norm(f: Field) -> float:
    return float(np.sqrt(f.grid.cell_volume) * np.linalg.norm(f.values.ravel()))


def spectral_tail_fraction(f: Field) -> float:
    """Fraction of spectral energy in the modes outside the 2/3-rule band; NaN,
    without a warning, when the energy overflows."""
    spec = _spectrum(f.grid, 1)  # w_hi is the plain Parseval weight at m = 1
    with np.errstate(over="ignore", invalid="ignore"):
        energy = spec.w_hi * np.abs(rfft(f.grid, f.values)) ** 2
        total = np.sum(energy)
        if total == 0.0:
            return 0.0
        return float(np.sum(energy[~spec.band]) / total)


def boundary_shell_max(f: Field, shell: float = 0.9) -> float:
    """max |f| over the shell |x| > shell * L."""
    mask = _shell_mask(f.grid, shell)
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(f.values[mask])))


_DECAY_SHELL = 0.9
_DECAY_TOL = 1e-8


def assert_boundary_decay(f: Field) -> None:
    """Abort if the field has not decayed below 1e-8 in the boundary shell
    |x| > 0.9 L.

    The periodic box only represents whole-space dynamics while the data
    stays negligible near the boundary; every output-time field must pass.
    """
    worst = boundary_shell_max(f, _DECAY_SHELL)
    if worst >= _DECAY_TOL:
        raise DecayAssertionError(
            f"boundary shell |x| > {_DECAY_SHELL:g}*L carries magnitude {worst:.3e} >= {_DECAY_TOL:.1e}"
            f" (t = {f.time_tag})"
        )


# ---------------------------------------------------------------------------
# initial data


def bump(
    grid: GridSpec,
    amplitude: float = 1.0,
    width: float = 1.0,
    center=None,
    steepness: float = 1.0,
) -> Field:
    """Smooth compactly supported bump exp(s - s/(1 - (|x-c|/w)^2)) on |x-c| < w.

    C-infinity with support exactly |x - c| <= w and peak value `amplitude`.
    Larger `steepness` s pushes the Fourier tail down faster, which the
    solver's smoothness precondition cares about on coarse grids.
    """
    require_real("amplitude", amplitude)
    require_real("steepness", steepness, "positive")
    require_real("width", width)
    if not width**2 > 0.0:
        raise ValueError(f"bump width {width!r} must have a positive square, got width**2 = {width**2!r}")
    require_real("width", width, "positive")
    if center is None:
        center = (0.0,) * grid.dim
    require_reals("center", center if np.ndim(center) else [center])
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size != grid.dim:
        raise ValueError("center must have one entry per dimension")
    r2 = sum((x - c) ** 2 for x, c in zip(coordinates(grid), center))
    r2 = np.broadcast_to(r2, grid.shape) / width**2
    vals = np.zeros(grid.shape)
    inside = r2 < 1.0
    with np.errstate(divide="ignore"):
        vals[inside] = amplitude * np.exp(steepness - steepness / (1.0 - r2[inside]))
    return Field(grid, vals, 0.0)


def random_bumps(grid: GridSpec, seed: int, count: int = 3, amplitude: float = 1.0,
                 width: float = 4.0, steepness: float = 6.0) -> Field:
    """The sum of ``count`` bumps of one width, each with an amplitude (0.3
    to 1 times ``amplitude``) and a centre drawn from the generator seeded
    with ``seed``.  The centres lie in the box inscribed in the ball
    |c| <= L/2 - width, so every bump lies within |x| <= L/2 whatever the seed."""
    require_int("count", count, lo=1)
    require_real("amplitude", amplitude)
    require_real("width", width, "positive")
    room = 0.5 * grid.half_width - width
    if room <= 0.0:
        raise ValueError(
            f"random_bumps width {width:g} leaves no room: it must be below L/2 = {0.5 * grid.half_width:g}"
        )
    span = room / np.sqrt(grid.dim)
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.shape)
    for _ in range(count):
        center = rng.uniform(-span, span, size=grid.dim)
        amp = rng.uniform(0.3, 1.0) * amplitude
        vals += bump(grid, amp, width, center=center, steepness=steepness).values
    return Field(grid, vals, 0.0)


# ---------------------------------------------------------------------------
# PHF1 snapshot format
#
# magic 'PHF1', little-endian u32 dim, u32 M, f64 L, f64 t, u8 payload kind
# (0, a scalar field), then the payload as little-endian f64 row-major.

_PHF1_MAGIC = b"PHF1"
_PHF1_HEADER = struct.Struct("<4sIIddB")


def write_phf1(path, obj) -> None:
    """Serialize a Field snapshot to the PHF1 binary format."""
    if not isinstance(obj, Field):
        raise TypeError(f"cannot serialize {type(obj).__name__} as PHF1")
    grid = obj.grid
    t = obj.time_tag if obj.time_tag is not None else 0.0
    header = _PHF1_HEADER.pack(
        _PHF1_MAGIC, grid.dim, grid.points_per_dim, grid.half_width, float(t), 0
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(obj.values, dtype="<f8").tobytes())


def read_phf1(path):
    """Read a PHF1 snapshot back into a Field.

    Validates the magic bytes, the payload kind and that the payload size
    matches the header.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _PHF1_HEADER.size:
        raise ValueError("PHF1 file truncated before header")
    magic, dim, m, length, t, kind = _PHF1_HEADER.unpack_from(raw)
    if magic != _PHF1_MAGIC:
        raise ValueError(f"bad magic {magic!r}, not a PHF1 file")
    if kind != 0:
        raise ValueError(f"unknown payload kind {kind}")
    grid = GridSpec(dim=dim, half_width=length, points_per_dim=m)
    payload = np.frombuffer(raw, dtype="<f8", offset=_PHF1_HEADER.size)
    if payload.size != m**dim:
        raise ValueError(f"payload holds {payload.size} values, expected {m**dim}")
    return Field(grid, payload.reshape(grid.shape).copy(), t)
