"""Grid, field, and spectral-operator tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyheat import gridfield as gridfield_module
from polyheat.gridfield import (
    DecayAssertionError,
    Field,
    GridMismatchError,
    assert_boundary_decay,
    boundary_shell_max,
    bump,
    coordinates,
    divergence_hat,
    gradient,
    inner,
    integrate,
    irfft,
    l2_norm,
    laplacian_power,
    make_grid,
    radius,
    read_phf1,
    rfft,
    spectral_tail_fraction,
    write_phf1,
)


@pytest.fixture(scope="module")
def grid1():
    return make_grid(1, 20.0, 256)


@pytest.fixture(scope="module")
def grid2():
    return make_grid(2, 10.0, 128)


def _band_limited(f):
    """Project onto the 2/3-rule band (zero the top-third modes)."""
    band = gridfield_module._spectrum(f.grid, 1).band
    return Field(f.grid, irfft(f.grid, np.where(band, rfft(f.grid, f.values), 0.0)), f.time_tag)


def divergence(grid, components):
    """Spectral divergence of a vector field given by its components, through
    the solver's kernel."""
    spec = gridfield_module._spectrum(grid, 1)
    return Field(grid, irfft(grid, divergence_hat(spec, components, False)))


def _gaussian(grid, scale=1.0):
    r2 = sum(np.broadcast_to(x, grid.shape) ** 2 for x in coordinates(grid))
    return Field(grid, np.exp(-r2 / scale))


class TestGridSpec:
    def test_spacing(self):
        assert make_grid(1, 20.0, 256).dx == 0.15625

    def test_point_count_2d(self):
        grid = make_grid(2, 10.0, 128)
        assert np.prod(grid.shape) == 16384

    def test_rejects_odd_or_tiny_m(self):
        with pytest.raises(ValueError, match="even >= 8"):
            make_grid(1, 20.0, 7)
        with pytest.raises(ValueError, match="even >= 8"):
            make_grid(1, 20.0, 6)

    def test_rejects_bad_half_width_and_dim(self):
        with pytest.raises(ValueError):
            make_grid(1, -1.0, 64)
        with pytest.raises(ValueError):
            make_grid(3, 10.0, 64)


def _full_spectrum(grid):
    """Per-axis wavenumbers pi*k/L and indices k on the full grid-shaped
    spectrum, in FFT order, straight from np.fft.fftfreq."""
    n = grid.points_per_dim
    xi = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx)] * grid.dim, indexing="ij")
    k = np.meshgrid(*[np.rint(np.fft.fftfreq(n) * n)] * grid.dim, indexing="ij")
    return xi, k


_SPECTRUM_GRIDS = [(1, 20.0, 256), (1, 20.0, 96), (2, 10.0, 128), (2, 6.0, 24)]


class TestSpectrumTable:
    """The half-spectrum table against the full spectrum cut to the last
    axis's columns 0 .. M/2, bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("dim,half_width,points", _SPECTRUM_GRIDS)
    def test_wavenumbers_match_fftfreq(self, dim, half_width, points, m):
        grid = make_grid(dim, half_width, points)
        spec = gridfield_module._spectrum(grid, m)
        h = points // 2 + 1
        half = grid.shape[:-1] + (h,)
        xi, k = _full_spectrum(grid)
        k2 = sum(x**2 for x in xi)
        assert rfft(grid, np.zeros(grid.shape)).shape == half
        assert spec.k2m.shape == spec.w_hi.shape == spec.w_lo.shape == half
        assert np.array_equal(spec.k2m, (k2**m)[..., :h])
        for d, (x, kd) in enumerate(zip(xi, k)):
            assert np.broadcast_shapes(spec.div[d].shape, spec.chain[d].shape) == half
            nyquist = kd[..., :h] == -(points // 2)
            assert nyquist.any()
            div = np.broadcast_to(spec.div[d], half)
            assert np.all(div[nyquist] == 0.0)
            assert np.array_equal(div.imag[~nyquist], x[..., :h][~nyquist])
            assert np.all(div.real == 0.0)

    @pytest.mark.parametrize("dim,half_width,points", _SPECTRUM_GRIDS)
    def test_band_keeps_a_third_per_axis(self, dim, half_width, points):
        grid = make_grid(dim, half_width, points)
        band = gridfield_module._spectrum(grid, 2).band
        h = points // 2 + 1
        _, k = _full_spectrum(grid)
        keep = np.logical_and.reduce([np.abs(kd) <= points / 3 for kd in k])
        assert band.shape == grid.shape[:-1] + (h,)
        assert np.array_equal(band, keep[..., :h])
        assert band[(0,) * dim] and not band.all()


class TestFieldTypes:
    def test_rejects_nan(self, grid1):
        vals = np.zeros(grid1.shape)
        vals[3] = np.nan
        with pytest.raises(FloatingPointError):
            Field(grid1, vals)

    def test_rejects_shape_mismatch(self, grid1):
        with pytest.raises(ValueError):
            Field(grid1, np.zeros(12))

    def test_values_immutable(self, grid1):
        f = Field(grid1, np.zeros(grid1.shape))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestLaplacianPower:
    def test_identity_at_zero(self, grid1):
        u = _gaussian(grid1)
        assert laplacian_power(u, 0) is u

    def test_sine_eigenfunction(self, grid1):
        x = np.broadcast_to(coordinates(grid1)[0], grid1.shape)
        u = Field(grid1, np.sin(np.pi * x / 20.0))
        lap = laplacian_power(u, 1)
        assert np.max(np.abs(lap.values + (np.pi / 20.0) ** 2 * u.values)) <= 1e-10

    def test_gaussian_bilaplacian_against_symbolic(self, grid1):
        # independent oracle: d^4/dx^4 e^(-x^2) computed symbolically
        import sympy

        xs = sympy.symbols("x")
        expr = sympy.diff(sympy.exp(-(xs**2)), xs, 4)
        poly = sympy.Poly(sympy.simplify(expr * sympy.exp(xs**2)), xs)
        assert poly.all_coeffs() == [16, 0, -48, 0, 12]

        x = np.broadcast_to(coordinates(grid1)[0], grid1.shape)
        u = Field(grid1, np.exp(-(x**2)))
        expected = (12.0 - 48.0 * x**2 + 16.0 * x**4) * np.exp(-(x**2))
        assert np.max(np.abs(laplacian_power(u, 2).values - expected)) <= 1e-6

    def test_composition(self, grid1):
        u = _gaussian(grid1, scale=4.0)
        once = laplacian_power(laplacian_power(u, 1), 2)
        direct = laplacian_power(u, 3)
        assert l2_norm(Field(grid1, once.values - direct.values)) <= 1e-10 * l2_norm(direct)

    def test_mean_zero_for_positive_powers(self, grid1):
        u = _gaussian(grid1)
        for k in (1, 2, 3):
            assert abs(integrate(laplacian_power(u, k))) <= 1e-12

    def test_rejects_negative_power(self, grid1):
        with pytest.raises(ValueError):
            laplacian_power(_gaussian(grid1), -1)


class TestGradientDivergence:
    def test_gradient_of_constant(self, grid2):
        g = gradient(Field(grid2, np.ones(grid2.shape)))
        assert len(g) == grid2.dim
        for c in g:
            assert np.max(np.abs(c)) <= 1e-14

    @pytest.mark.parametrize("dim", [1, 2])
    def test_div_grad_is_laplacian(self, dim):
        grid = make_grid(dim, 10.0, 128)
        u = _gaussian(grid)
        lhs = divergence(grid, gradient(u))
        rhs = laplacian_power(u, 1)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12

    def test_divergence_integrates_to_zero(self, grid2):
        u = _gaussian(grid2)
        assert abs(integrate(divergence(grid2, gradient(u)))) <= 1e-12

    def test_grid_mismatch(self, grid1):
        with pytest.raises(GridMismatchError):
            inner(_gaussian(grid1), _gaussian(make_grid(1, 20.0, 128)))


class TestIntegrate:
    def test_constant(self):
        grid = make_grid(1, 20.0, 64)
        assert integrate(Field(grid, np.full(grid.shape, 3.0))) == pytest.approx(120.0)

    def test_gaussian(self, grid1):
        assert integrate(_gaussian(grid1)) == pytest.approx(np.sqrt(np.pi), abs=1e-10)

    def test_parseval(self, grid1):
        u = _gaussian(grid1, scale=2.5)
        phys = l2_norm(u)
        fh = np.fft.fftn(u.values)
        spec = np.sqrt(grid1.cell_volume / grid1.points_per_dim * np.sum(np.abs(fh) ** 2))
        assert abs(phys - spec) <= 1e-12 * phys


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6), st.randoms())
def test_gradient_divergence_adjoint(ku, kv, rnd):
    """<grad u, v> = -<u, div v> for random low-mode trig fields."""
    grid = make_grid(1, 10.0, 64)
    x = np.broadcast_to(coordinates(grid)[0], grid.shape)
    u = Field(grid, np.sin(ku * np.pi * x / 10.0) + 0.3 * np.cos(2 * np.pi * x / 10.0))
    v = (np.cos(kv * np.pi * x / 10.0) + rnd.uniform(-1, 1),)
    (du,) = gradient(u)
    lhs = grid.cell_volume * np.sum(du * v[0])
    rhs = -grid.cell_volume * np.sum(u.values * divergence(grid, v).values)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestDecayAssertion:
    def test_passes_for_compact_bump(self, grid1):
        assert_boundary_decay(bump(grid1, 1.0, 3.0))

    def test_fires_for_wide_field(self, grid1):
        with pytest.raises(DecayAssertionError):
            assert_boundary_decay(Field(grid1, np.ones(grid1.shape)))

    def test_shell_max_value(self, grid1):
        x = np.broadcast_to(coordinates(grid1)[0], grid1.shape)
        vals = np.where(np.abs(x) > 18.0, 0.5, 0.0)
        assert boundary_shell_max(Field(grid1, vals)) == 0.5

    @pytest.mark.parametrize("shell", [0.5, 0.9, 1.5])
    def test_cached_shell_mask_matches_radius(self, grid1, grid2, shell):
        rng = np.random.default_rng(3)
        for grid in (grid1, grid2):
            mask = gridfield_module._shell_mask(grid, shell)
            direct = radius(grid) > shell * grid.half_width
            assert np.array_equal(mask, direct)
            assert not mask.flags.writeable
            f = Field(grid, rng.standard_normal(grid.shape))
            expected = float(np.max(np.abs(f.values[direct]))) if direct.any() else 0.0
            assert boundary_shell_max(f, shell) == expected


class TestBump:
    def test_support_and_peak(self, grid1):
        u = bump(grid1, amplitude=2.0, width=3.0)
        x = np.broadcast_to(coordinates(grid1)[0], grid1.shape)
        assert np.max(u.values) == pytest.approx(2.0, abs=1e-12)
        assert np.all(u.values[np.abs(x) >= 3.0] == 0.0)

    def test_steepness_improves_tail(self):
        grid = make_grid(1, 24.0, 256)
        t1 = spectral_tail_fraction(bump(grid, 1.0, 4.0, steepness=1.0))
        t6 = spectral_tail_fraction(bump(grid, 1.0, 4.0, steepness=6.0))
        assert t6 < t1 * 1e-2

    def test_band_limited_kills_tail(self, grid1):
        u = _band_limited(bump(grid1, 1.0, 2.0))
        assert spectral_tail_fraction(u) <= 1e-30

    def test_2d_center(self, grid2):
        u = bump(grid2, 1.0, 2.0, center=(1.0, -1.0))
        i = np.unravel_index(np.argmax(u.values), u.values.shape)
        xs = [np.broadcast_to(c, grid2.shape)[i] for c in coordinates(grid2)]
        assert xs[0] == pytest.approx(1.0, abs=grid2.dx)
        assert xs[1] == pytest.approx(-1.0, abs=grid2.dx)

    @pytest.mark.parametrize("width", [1e-170, 0.0])
    def test_rejects_width_without_positive_square(self, grid1, width):
        # 1e-170 squares to 0.0, which would divide the radius to inf and
        # leave the zero field
        with pytest.raises(ValueError, match=r"must have a positive square, got width\*\*2 = 0\.0"):
            bump(grid1, 1.0, width)

    def test_rejects_non_numeric_width_by_name(self, grid1):
        with pytest.raises(TypeError, match="width must be a real number"):
            bump(grid1, 1.0, "4")


class TestPhf1:
    def test_scalar_roundtrip(self, tmp_path, grid1):
        u = bump(grid1, 1.3, 2.0)
        u = Field(grid1, u.values, 0.25)
        path = tmp_path / "snap.phf1"
        write_phf1(path, u)
        back = read_phf1(path)
        assert back.grid == grid1
        assert back.time_tag == 0.25
        assert np.array_equal(back.values, u.values)

    def test_rejects_vector_payload_kind(self, tmp_path, grid1):
        path = tmp_path / "vec.phf1"
        write_phf1(path, bump(grid1, 1.0, 2.0))
        raw = bytearray(path.read_bytes())
        raw[gridfield_module._PHF1_HEADER.size - 1] = 1  # the payload kind byte
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unknown payload kind 1"):
            read_phf1(path)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.phf1"
        path.write_bytes(b"JUNK" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_phf1(path)

    def test_rejects_truncated_payload(self, tmp_path, grid1):
        path = tmp_path / "short.phf1"
        write_phf1(path, bump(grid1, 1.0, 2.0))
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="payload"):
            read_phf1(path)
