import csv
import io
import json

import numpy as np
import pytest

from ngmca import bench
from ngmca.algorithms import AlgorithmConfig
from ngmca.cli import main
from ngmca.io import read_factors, read_instance, write_factors, write_instance


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def instance_file(tmp_path):
    spec = write_json(tmp_path / "spec.json",
                      {"m": 20, "n": 20, "r": 2, "p_S": 0.4,
                       "snr_db": 20.0, "seed": 5})
    out = tmp_path / "instance.bin"
    assert main(["generate", "--spec", spec, "--out", str(out)]) == 0
    return out


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument(self):
        assert main(["generate", "--spec", "only.json"]) == 1

    def test_runtime_error_is_two(self, tmp_path):
        out = tmp_path / "x.bin"
        assert main(["generate", "--spec", str(tmp_path / "missing.json"),
                     "--out", str(out)]) == 2


class TestPipeline:
    def test_generate_writes_instance(self, instance_file):
        inst = read_instance(instance_file)
        assert inst.y.shape == (20, 20)
        assert inst.spec.seed == 5

    def test_run_eval_plot_end_to_end(self, tmp_path, instance_file):
        factors = tmp_path / "factors.bin"
        cfg = write_json(tmp_path / "algo.json",
                         {"outer_iterations": 30, "seed": 9})
        assert main(["run", "--algorithm", "ngmca_s",
                     "--instance", str(instance_file),
                     "--config", cfg, "--out", str(factors)]) == 0
        a, s = read_factors(factors)
        assert a.shape == (20, 2) and s.shape == (2, 20)
        assert (a >= 0).all() and (s >= 0).all()

        report_path = tmp_path / "eval.json"
        assert main(["eval", "--factors", str(factors),
                     "--instance", str(instance_file),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert {"mean_sdr_db", "per_source_sdr_db", "permutation",
                "final_objective"} <= set(report)
        assert np.isfinite(report["mean_sdr_db"])

    def test_eval_report_is_the_bench_score(self, tmp_path, monkeypatch):
        cfg = bench.BenchmarkConfig(
            grid={"m": [20], "n": [20], "r": [2], "p_S": [0.4],
                  "snr_db": [20.0]},
            algorithms=[AlgorithmConfig("als", rank=2, outer_iterations=15)],
            trials_per_cell=1, base_seed=3)
        # keep what run_trial scores: the factors, the instance, the score
        seen = []
        score_pair = bench.score_pair

        def spy(a, s, inst):
            seen.append((a, s, inst, score_pair(a, s, inst)))
            return seen[-1][-1]

        monkeypatch.setattr(bench, "score_pair", spy)
        (rec,) = bench.run_trial(cfg, cfg.cells()[0], 0)
        a, s, inst, score = seen[0]
        write_instance(tmp_path / "inst.bin", inst)
        write_factors(tmp_path / "factors.bin", a, s)
        assert main(["eval", "--factors", str(tmp_path / "factors.bin"),
                     "--instance", str(tmp_path / "inst.bin"),
                     "--out", str(tmp_path / "eval.json")]) == 0
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report == json.loads(json.dumps(score))
        assert report["mean_sdr_db"] == rec.mean_sdr_db
        assert report["per_source_sdr_db"] == rec.per_source_sdr_db
        assert report["final_objective"] == rec.final_objective

    def test_thresholding_mode_is_runtime_error(self, tmp_path,
                                                instance_file):
        cfg = write_json(tmp_path / "algo.json",
                         {"subsolver": {"thresholding_mode": "hard"}})
        assert main(["run", "--algorithm", "ngmca_s",
                     "--instance", str(instance_file),
                     "--config", cfg, "--out", str(tmp_path / "f.bin")]) == 2

    def test_subsolver_is_runtime_error(self, tmp_path, instance_file):
        cfg = write_json(tmp_path / "algo.json",
                         {"subsolver": {"max_inner_iterations": 3}})
        assert main(["run", "--algorithm", "als",
                     "--instance", str(instance_file),
                     "--config", cfg, "--out", str(tmp_path / "f.bin")]) == 2
        assert not (tmp_path / "f.bin").exists()

    def test_oracle_run_uses_reference_mixing(self, tmp_path, instance_file):
        factors = tmp_path / "oracle.bin"
        assert main(["run", "--algorithm", "oracle",
                     "--instance", str(instance_file),
                     "--out", str(factors)]) == 0
        a, _ = read_factors(factors)
        np.testing.assert_array_equal(a, read_instance(instance_file).a_ref)

    def test_bench_and_plot(self, tmp_path):
        campaign = write_json(tmp_path / "campaign.json", {
            "grid": {"m": [20], "n": [20], "r": [2], "p_S": [0.4],
                     "snr_db": [10.0, 20.0]},
            "algorithms": [{"algorithm_id": "als", "rank": 2,
                            "outer_iterations": 15}],
            "trials_per_cell": 2,
            "base_seed": 3,
        })
        out_dir = tmp_path / "results"
        assert main(["bench", "--config", campaign,
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "results.csv").exists()

        fig = tmp_path / "fig.svg"
        assert main(["plot", "--summary", str(out_dir / "summary.csv"),
                     "--x", "snr_db", "--out", str(fig)]) == 0
        assert fig.read_text().startswith("<svg")
        assert fig.with_suffix(".csv").exists()

    def test_bench_unknown_key_is_runtime_error(self, tmp_path):
        campaign = write_json(tmp_path / "campaign.json", {
            "grid": {"m": [15], "n": [15], "r": [2], "snr_db": [10.0]},
            "algorithms": [{"algorithm_id": "als", "rank": 2,
                            "outer_iterations": 10}],
            "trials_per_cel": 1,
        })
        out_dir = tmp_path / "results"
        assert main(["bench", "--config", campaign,
                     "--out", str(out_dir)]) == 2
        assert not out_dir.exists()

    def test_bench_subsolver_is_runtime_error(self, tmp_path):
        campaign = write_json(tmp_path / "campaign.json", {
            "grid": {"m": [15], "n": [15], "r": [2], "snr_db": [10.0]},
            "algorithms": [{"algorithm_id": "ngmca_s", "rank": 2,
                            "subsolver": {"rel_tol": 1e-2}}],
            "trials_per_cell": 1,
        })
        out_dir = tmp_path / "results"
        assert main(["bench", "--config", campaign,
                     "--out", str(out_dir)]) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("change, field", [
        ({"trials_per_cell": 0}, "trials_per_cell"),
        ({"grid": {"m": [15], "n": [15], "r": [2], "snr_db": []}}, "'snr_db'"),
        ({"grid": {"m": [15], "n": [15], "r": [2], "snr_db": "noiseless"}},
         "'snr_db'"),
        ({"grid": {"m": [15], "n": [15], "r": 2, "snr_db": [10.0]}}, "'r'"),
        ({"algorithms": []}, "algorithms must"),
        ({"trials_per_cell": True}, "trials_per_cell"),
        ({"grid": [20]}, "grid must"),
        ({"algorithms": "als"}, "algorithms must"),
        ({"algorithms": ["als"]}, "algorithms must"),
        (None, "JSON object"),
        ({"algorithms": [{"algorithm_id": "als", "outer_iterations": 30.0}]},
         "outer_iterations"),
        ({"algorithms": [{"algorithm_id": "als", "outer_iterations": True}]},
         "outer_iterations"),
        ({"base_seed": 0.0}, "base_seed"),
    ], ids=["zero_trials", "empty_axis", "string_axis", "scalar_axis",
            "no_algorithm", "bool_trials", "list_grid", "string_algorithms",
            "string_algorithm", "list_config", "float_iterations",
            "bool_iterations", "float_seed"])
    def test_bench_empty_campaign_is_runtime_error(self, tmp_path, capsys,
                                                   change, field):
        config = {"grid": {"m": [15], "n": [15], "r": [2], "snr_db": [10.0]},
                  "algorithms": [{"algorithm_id": "als", "rank": 2,
                                  "outer_iterations": 10}],
                  "trials_per_cell": 1}
        # change None: the whole config wrapped in a list
        campaign = write_json(tmp_path / "campaign.json",
                              [config] if change is None
                              else {**config, **change})
        out_dir = tmp_path / "results"
        assert main(["bench", "--config", campaign,
                     "--out", str(out_dir)]) == 2
        assert not out_dir.exists()
        assert field in capsys.readouterr().err

    def test_plot_leaves_out_an_all_error_group(self, tmp_path):
        # p_S = 0 draws no live source, so every trial of that cell is an
        # error row and its summary mean is written empty
        campaign = write_json(tmp_path / "campaign.json", {
            "grid": {"m": [15], "n": [15], "r": [2], "p_S": [0.0, 0.4],
                     "snr_db": [10.0]},
            "algorithms": [{"algorithm_id": "als", "rank": 2,
                            "outer_iterations": 10}],
            "trials_per_cell": 1,
        })
        out_dir = tmp_path / "results"
        assert main(["bench", "--config", campaign,
                     "--out", str(out_dir)]) == 0
        summary = (out_dir / "summary.csv").read_text()
        assert [row["mean"] == "" for row in
                csv.DictReader(io.StringIO(summary))] == [True, False]
        fig = tmp_path / "fig.svg"
        assert main(["plot", "--summary", str(out_dir / "summary.csv"),
                     "--x", "p_S", "--out", str(fig)]) == 0
        sidecar = fig.with_suffix(".csv").read_text()
        assert [row["p_S"] for row in
                csv.DictReader(io.StringIO(sidecar))] == ["0.4"]

    def test_plot_unknown_axis_is_runtime_error(self, tmp_path):
        campaign = write_json(tmp_path / "campaign.json", {
            "grid": {"m": [15], "n": [15], "r": [2], "snr_db": [10.0]},
            "algorithms": [{"algorithm_id": "als", "rank": 2,
                            "outer_iterations": 10}],
            "trials_per_cell": 1,
        })
        out_dir = tmp_path / "results"
        assert main(["bench", "--config", campaign,
                     "--out", str(out_dir)]) == 0
        assert main(["plot", "--summary", str(out_dir / "summary.csv"),
                     "--x", "voltage", "--out", str(tmp_path / "f.svg")]) == 2
