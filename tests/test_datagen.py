import math

import numpy as np
import pytest

from ngmca.datagen import (InstanceSpec, PeakList, add_noise_snr, gen_factor,
                           gen_instance, gen_nmr_instance, gen_nmr_sources,
                           gg_scale, load_peak_corpus, load_peak_list,
                           sample_generalized_gaussian)
from ngmca.errors import PeakOutOfRangeError, ZeroSignalError
from ngmca.rng import stream
from oracles import measure_snr


def excess_kurtosis(x):
    x = x - x.mean()
    return float(np.mean(x**4) / np.mean(x**2) ** 2 - 3.0)


def gg_theoretical_kurtosis(alpha):
    g = math.gamma
    return g(5 / alpha) * g(1 / alpha) / g(3 / alpha) ** 2 - 3.0


class TestGeneralizedGaussian:
    def test_gaussian_case(self):
        x = sample_generalized_gaussian(2.0, 10**6, stream(0, "gg"))
        assert x.var() == pytest.approx(1.0, rel=0.02)
        assert excess_kurtosis(x) == pytest.approx(0.0, abs=0.1)

    def test_laplacian_case(self):
        x = sample_generalized_gaussian(1.0, 10**6, stream(1, "gg"))
        assert x.var() == pytest.approx(1.0, rel=0.02)
        assert excess_kurtosis(x) == pytest.approx(3.0, abs=0.2)

    def test_alpha_half_kurtosis(self):
        x = sample_generalized_gaussian(0.5, 10**6, stream(2, "gg"))
        expected = gg_theoretical_kurtosis(0.5)
        assert expected == pytest.approx(22.2, abs=0.1)
        assert excess_kurtosis(x) == pytest.approx(expected, rel=0.10)

    def test_unit_variance_scale(self):
        # the scale factor enforces unit variance for any shape
        for alpha in (0.5, 1.0, 2.0, 4.0):
            g = math.gamma
            var = gg_scale(alpha) ** 2 * g(3 / alpha) / g(1 / alpha)
            assert var == pytest.approx(1.0, rel=1e-12)


class TestGenFactor:
    def test_p_zero_gives_zero_matrix(self):
        m = gen_factor(20, 20, 0.0, 1.0, stream(0, "f"))
        np.testing.assert_array_equal(m, 0.0)

    def test_half_normal_mean(self):
        m = gen_factor(320, 320, 1.0, 2.0, stream(1, "f"))
        assert m.ravel().size >= 10**5
        assert m.mean() == pytest.approx(np.sqrt(2 / np.pi), rel=0.02)

    def test_activation_rate(self):
        m = gen_factor(320, 320, 0.3, 1.0, stream(2, "f"))
        assert np.mean(m != 0.0) == pytest.approx(0.3, abs=0.01)

    def test_nonnegative(self):
        m = gen_factor(50, 50, 0.7, 0.5, stream(3, "f"))
        assert (m >= 0).all()


class TestAddNoiseSnr:
    def test_round_trip(self, gen):
        x = gen.random((30, 30)) + 0.1
        for snr in (0.0, 7.5, 20.0, math.inf):
            y, z = add_noise_snr(x, snr, stream(0, "z"))
            np.testing.assert_allclose(y, x + z)
            if snr == math.inf:
                assert not z.any()
                np.testing.assert_array_equal(y, x)
            else:
                assert measure_snr(y, x) == pytest.approx(snr, abs=1e-6)

    def test_zero_db_equal_power(self, gen):
        x = gen.random((20, 20)) + 0.1
        _, z = add_noise_snr(x, 0.0, stream(1, "z"))
        assert np.linalg.norm(z) == pytest.approx(np.linalg.norm(x),
                                                  rel=1e-9)

    def test_zero_signal_raises(self):
        with pytest.raises(ZeroSignalError):
            add_noise_snr(np.zeros((4, 4)), 10.0, stream(2, "z"))


class TestGenInstance:
    def test_composition_exact(self):
        inst = gen_instance(InstanceSpec(m=30, n=30, r=4, p_S=0.2,
                                         snr_db=15.0, seed=5))
        np.testing.assert_array_equal(inst.y, inst.a_ref @ inst.s_ref
                                      + inst.z)
        assert (inst.a_ref >= 0).all() and (inst.s_ref >= 0).all()

    def test_noiseless_flag(self):
        inst = gen_instance(InstanceSpec(m=20, n=20, r=3, seed=1))
        np.testing.assert_array_equal(inst.z, 0.0)
        np.testing.assert_array_equal(inst.y, inst.a_ref @ inst.s_ref)

    def test_determinism_bit_identical(self):
        spec = InstanceSpec(m=25, n=25, r=3, p_S=0.3, snr_db=20.0, seed=9)
        i1, i2 = gen_instance(spec), gen_instance(spec)
        np.testing.assert_array_equal(i1.y, i2.y)
        np.testing.assert_array_equal(i1.z, i2.z)

    def test_standard_settings_activation_rate(self):
        spec = InstanceSpec(seed=4)  # defaults: 200x200, r=15, p_S=10%
        inst = gen_instance(spec)
        assert np.mean(inst.s_ref != 0.0) == pytest.approx(0.1, abs=0.01)

    def test_no_dead_sources(self):
        for seed in range(20):
            inst = gen_instance(InstanceSpec(m=10, n=10, r=4, p_S=0.05,
                                             seed=seed))
            assert inst.s_ref.any(axis=1).all()
            assert inst.a_ref.any(axis=0).all()


class TestNmrSources:
    def test_fwhm_definition(self):
        rows = gen_nmr_sources([PeakList([(600, 1.0)])], 1200)
        peak = rows[0, 600]
        # half maximum at +- fwhm/2: sample the kernel off-grid analytically
        b = 3.0 / (2 * np.log(2))
        assert np.exp(-1.5 / b) == pytest.approx(0.5, abs=1e-9)
        assert rows[0, 603] == pytest.approx(peak * np.exp(-3 / b), rel=1e-9)

    def test_linearity_disjoint_peaks(self):
        both = gen_nmr_sources([PeakList([(200, 1.0), (900, 2.0)])], 1200)
        left = gen_nmr_sources([PeakList([(200, 1.0)])], 1200)
        right = gen_nmr_sources([PeakList([(900, 2.0)])], 1200)
        np.testing.assert_allclose(both, left + right, atol=1e-12)

    def test_translation_equivariance(self):
        base = gen_nmr_sources([PeakList([(500, 1.0), (550, 0.5)])], 1200)
        shifted = gen_nmr_sources([PeakList([(507, 1.0), (557, 0.5)])], 1200)
        np.testing.assert_allclose(shifted[0, 107:1100],
                                   base[0, 100:1093], atol=1e-12)

    def test_positions_are_sample_indices(self):
        # a position below 1 is a sample index too, not a grid fraction
        row = gen_nmr_sources([PeakList([(0.5, 1.0)])], 1200)[0]
        assert row[0] == row[1] == row.max()
        assert (row[2:] < row[0]).all()

    def test_out_of_range_peak(self):
        with pytest.raises(PeakOutOfRangeError):
            gen_nmr_sources([PeakList([(1500, 1.0)])], 1200)

    def test_nonnegative(self):
        rows = gen_nmr_sources([PeakList([(10, 0.2), (30, 1.0)])], 64)
        assert (rows >= 0).all()


class TestCorpus:
    def test_fifteen_compounds(self):
        corpus = load_peak_corpus()
        assert len(corpus) == 15
        assert all(pl.peaks for pl in corpus)
        assert len({pl.compound_name for pl in corpus}) == 15

    def test_correlated_pair_present(self):
        corpus = load_peak_corpus()
        rows = gen_nmr_sources(corpus, 1200)
        norms = np.linalg.norm(rows, axis=1)
        gram = (rows @ rows.T) / np.outer(norms, norms)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() >= 0.6

    def test_peak_file_parsing(self, tmp_path):
        p = tmp_path / "demo.peaks"
        p.write_text("# a comment\n12\t1.5\n0.25\t0.3\n")
        pl = load_peak_list(p)
        assert pl.compound_name == "demo"
        assert pl.peaks == [(12.0, 1.5), (0.25, 0.3)]


class TestNmrInstance:
    def test_shapes_and_snr(self):
        inst = gen_nmr_instance(m=15, snr_db=15.0, seed=3)
        assert inst.y.shape == (15, 1200)
        assert inst.s_ref.shape == (15, 1200)
        assert measure_snr(inst.y, inst.a_ref @ inst.s_ref) \
            == pytest.approx(15.0, abs=1e-6)

    @pytest.mark.parametrize("snr", [None, math.inf, "noiseless"])
    def test_noiseless(self, snr):
        inst = gen_nmr_instance(m=10, snr_db=snr, seed=8)
        assert inst.spec.is_noiseless()
        np.testing.assert_array_equal(inst.z, 0.0)
        np.testing.assert_array_equal(inst.y, inst.a_ref @ inst.s_ref)

    def test_deterministic(self):
        i1 = gen_nmr_instance(m=10, snr_db=15.0, seed=8)
        i2 = gen_nmr_instance(m=10, snr_db=15.0, seed=8)
        np.testing.assert_array_equal(i1.y, i2.y)
