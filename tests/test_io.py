import json
import math

import numpy as np
import pytest

from ngmca.algorithms import AlgorithmConfig
from ngmca.datagen import NOISELESS, InstanceSpec, gen_instance
from ngmca.io import (read_container, read_factors, read_instance,
                      write_container, write_factors, write_instance)


class TestContainer:
    def test_round_trip(self, tmp_path, gen):
        arrays = {"x": gen.standard_normal((3, 4)),
                  "y": gen.random((2, 2))}
        meta = {"kind": "demo", "n": 7}
        path = tmp_path / "c.bin"
        write_container(path, meta, arrays)
        meta2, arrays2 = read_container(path)
        assert meta2 == meta
        for k in arrays:
            np.testing.assert_array_equal(arrays2[k], arrays[k])

    def test_header_is_json_with_length_prefix(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {"a": 1}, {"m": np.zeros((1, 1))})
        raw = path.read_bytes()
        n = int.from_bytes(raw[:8], "little")
        header = json.loads(raw[8:8 + n])
        assert header["a"] == 1

    def test_payload_is_little_endian_float64(self, tmp_path):
        m = np.arange(6, dtype=float).reshape(2, 3)
        path = tmp_path / "c.bin"
        write_container(path, {}, {"m": m})
        raw = path.read_bytes()
        n = int.from_bytes(raw[:8], "little")
        payload = np.frombuffer(raw[8 + n:], dtype="<f8")
        np.testing.assert_array_equal(payload, m.ravel())


class TestInstanceIo:
    def test_round_trip(self, tmp_path):
        inst = gen_instance(InstanceSpec(m=10, n=12, r=2, p_S=0.4,
                                         snr_db=20.0, seed=3))
        path = tmp_path / "inst.bin"
        write_instance(path, inst)
        back = read_instance(path)
        np.testing.assert_array_equal(back.y, inst.y)
        np.testing.assert_array_equal(back.a_ref, inst.a_ref)
        np.testing.assert_array_equal(back.s_ref, inst.s_ref)
        np.testing.assert_array_equal(back.z, inst.z)
        assert back.spec == inst.spec

    @pytest.mark.parametrize("snr, expected", [
        (None, NOISELESS), (math.inf, NOISELESS), ("inf", NOISELESS),
        (NOISELESS, NOISELESS), ("12.5", 12.5), (12.5, 12.5)])
    def test_snr_normalised_and_round_trips(self, tmp_path, snr, expected):
        spec = InstanceSpec(m=6, n=7, r=2, p_S=0.5, snr_db=snr, seed=1)
        assert spec.snr_db == expected
        assert spec.is_noiseless() == (expected == NOISELESS)
        path = tmp_path / "inst.bin"
        write_instance(path, gen_instance(spec))
        assert read_instance(path).spec == spec

    def test_factors_round_trip(self, tmp_path, gen):
        a, s = gen.random((5, 2)), gen.random((2, 6))
        path = tmp_path / "f.bin"
        write_factors(path, a, s, meta={"algorithm_id": "als"})
        a2, s2 = read_factors(path)
        np.testing.assert_array_equal(a2, a)
        np.testing.assert_array_equal(s2, s)


class TestConfigParsing:
    # JSON configs are passed to the dataclass constructors as keywords
    def test_instance_spec_fields(self):
        spec = InstanceSpec(**{"m": 30, "n": 40, "r": 4, "p_S": 0.2,
                               "snr_db": 15.0, "seed": 11})
        assert spec == InstanceSpec(m=30, n=40, r=4, p_S=0.2, snr_db=15.0,
                                    seed=11)

    def test_noiseless_string(self):
        spec = InstanceSpec(**{"snr_db": "noiseless"})
        assert spec.is_noiseless()

    def test_algorithm_config_nested_subsolver(self):
        # the inner-solver tolerances are fixed per phase, not settable
        with pytest.raises(TypeError, match="subsolver"):
            AlgorithmConfig(**{"algorithm_id": "ngmca_s", "rank": 4,
                               "tau_final": 2.0,
                               "subsolver": {"max_inner_iterations": 40}})
        cfg = AlgorithmConfig(**{"algorithm_id": "ngmca_s", "rank": 4,
                                 "tau_final": 2.0})
        assert (cfg.rank, cfg.tau_final) == (4, 2.0)

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            AlgorithmConfig(**{"algorithm_id": "als", "learning_rate": 0.1})

    def test_thresholding_mode_rejected(self):
        # the algorithm id alone picks the threshold
        with pytest.raises(TypeError):
            AlgorithmConfig(**{"algorithm_id": "ngmca_s",
                               "subsolver": {"thresholding_mode": "hard"}})
