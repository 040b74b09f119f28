import csv
import io as stdio
import time

import numpy as np
import pytest

from ngmca import bench
from ngmca.algorithms import AlgorithmConfig
from ngmca.bench import (BenchmarkConfig, emit_plot, records_to_csv,
                         run_campaign, run_trial, summarize, summary_to_csv,
                         timings_to_csv, write_campaign_outputs)
from ngmca.errors import UnknownAxisError
from ngmca.bench import TrialRecord


def read_summary(rows):
    """summary.csv rows as `ngmca plot` reads them: strings, as written."""
    return list(csv.DictReader(stdio.StringIO(summary_to_csv(rows))))


def tiny_config(output_dir="results", trials=2):
    return BenchmarkConfig(
        grid={"m": [20], "n": [20], "r": [2], "p_S": [0.4],
              "snr_db": [20.0]},
        algorithms=[AlgorithmConfig("als", rank=2, outer_iterations=20),
                    AlgorithmConfig("ngmca_naive", rank=2,
                                    outer_iterations=20)],
        trials_per_cell=trials,
        base_seed=7,
        output_dir=output_dir,
    )


class TestRunCampaign:
    def test_duplicate_algorithm_id_rejected(self):
        # derived seeds hash the algorithm id: two configs sharing one would
        # get the same seeds and be merged by summarize
        with pytest.raises(ValueError, match="'mu'"):
            BenchmarkConfig(
                grid={"m": [20], "n": [20], "r": [2]},
                algorithms=[AlgorithmConfig("mu", rank=2, outer_iterations=10),
                            AlgorithmConfig("als", rank=2),
                            AlgorithmConfig("mu", rank=2,
                                            outer_iterations=2000)])

    @pytest.mark.parametrize("change, field", [
        ({"trials_per_cell": 0}, "trials_per_cell"),
        ({"trials_per_cell": -3}, "trials_per_cell"),
        ({"trials_per_cell": "2"}, "trials_per_cell"),
        ({"grid": {"m": [20], "n": [20], "r": [2], "snr_db": []}}, "snr_db"),
        ({"grid": {"m": [20], "n": [20], "r": [2], "snr_db": "noiseless"}},
         "snr_db"),
        ({"grid": {"m": [20], "n": [20], "r": 2}}, "'r'"),
        ({"trials_per_cell": True}, "trials_per_cell"),
        ({"grid": [20]}, "grid must"),
        ({"algorithms": "als"}, "algorithms must"),
        ({"algorithms": ["als"]}, "algorithms must"),
    ], ids=["zero_trials", "negative_trials", "string_trials", "empty_axis",
            "string_axis", "scalar_axis", "bool_trials", "list_grid",
            "string_algorithms", "string_algorithm"])
    def test_empty_or_ill_typed_campaign_rejected(self, change, field):
        # a campaign that cannot run must fail before it writes anything
        kwargs = {"grid": {"m": [20], "n": [20], "r": [2]},
                  "algorithms": [AlgorithmConfig("als", rank=2)], **change}
        with pytest.raises(ValueError, match=field):
            BenchmarkConfig(**kwargs)

    def test_campaign_without_algorithms_rejected(self):
        with pytest.raises(ValueError, match="algorithms"):
            BenchmarkConfig(grid={"m": [30], "n": [5], "r": [5]},
                            algorithms=[], trials_per_cell=3)

    def test_record_count_and_distinct_seeds(self):
        records = run_campaign(tiny_config())
        assert len(records) == 4  # 1 cell x 2 algorithms x 2 trials
        seeds = {(r.algorithm_id, r.trial): r.seed for r in records}
        assert len(set(seeds.values())) == 4

    def test_rerun_byte_identical_csv(self):
        c1 = records_to_csv(run_campaign(tiny_config()))
        c2 = records_to_csv(run_campaign(tiny_config()))
        assert c1 == c2

    def test_worker_count_invariance(self):
        c1 = records_to_csv(run_campaign(tiny_config(), workers=1))
        c2 = records_to_csv(run_campaign(tiny_config(), workers=2))
        assert c1 == c2

    def test_trial_isolated_equals_in_grid(self):
        cfg = tiny_config()
        full = run_campaign(cfg)
        cell = cfg.cells()[0]
        alone = run_trial(cfg, cell, trial=1)
        matching = [r for r in full if r.trial == 1]
        for a, b in zip(alone, matching):
            assert a.seed == b.seed
            assert a.mean_sdr_db == b.mean_sdr_db

    def test_mixed_snr_axis(self, tmp_path):
        # numbers and "noiseless" on one axis: numbers first, in order
        cfg = tiny_config(trials=1)
        cfg.grid["snr_db"] = ["noiseless", 20.0, 10.0]
        write_campaign_outputs(cfg, run_campaign(cfg), tmp_path)
        for name in ("results.csv", "summary.csv"):
            rows = csv.DictReader(stdio.StringIO((tmp_path / name).read_text()))
            snrs = list(dict.fromkeys(row["snr_db"] for row in rows))
            assert snrs == ["10.0", "20.0", "noiseless"]
        assert (tmp_path / "timings.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_failures_become_error_rows(self, monkeypatch):
        # an algorithm that raises must surface as error rows of its own
        # rather than kill the campaign or the other algorithm's rows
        run_algorithm = bench.run_algorithm

        def failing_als(y, cfg, a_ref=None):
            if cfg.algorithm_id == "als":
                raise ArithmeticError("als diverged")
            return run_algorithm(y, cfg, a_ref=a_ref)

        monkeypatch.setattr(bench, "run_algorithm", failing_als)
        records = run_campaign(tiny_config())
        assert len(records) == 4
        failed = [r for r in records if r.algorithm_id == "als"]
        scored = [r for r in records if r.algorithm_id == "ngmca_naive"]
        assert len(failed) == len(scored) == 2
        assert all(r.error == "als diverged" and r.mean_sdr_db is None
                   for r in failed)
        assert all(r.error is None and r.mean_sdr_db is not None
                   for r in scored)


class TestTimings:
    def test_wall_time_excludes_evaluation(self, monkeypatch):
        nap = 0.5
        pair_sources = bench.pair_sources

        def slow_pair_sources(*args):
            time.sleep(nap)
            return pair_sources(*args)

        monkeypatch.setattr(bench, "pair_sources", slow_pair_sources)
        cfg = tiny_config(trials=1)
        records = run_trial(cfg, cfg.cells()[0], trial=0)
        assert all(r.error is None for r in records)
        assert all(r.wall_time_seconds < nap for r in records)


class TestCsv:
    def test_wall_time_not_in_results_csv(self):
        records = run_campaign(tiny_config())
        header = records_to_csv(records).splitlines()[0]
        assert "wall_time" not in header
        assert "mean_sdr_db" in header

    def test_results_and_timings_headers(self):
        # the columns are derived from TrialRecord: reordering its fields
        # must not silently reorder the CSV files
        cfg = BenchmarkConfig(grid={"m": [20], "n": [20], "r": [2],
                                    "snr_db": [20.0]},
                              algorithms=[AlgorithmConfig("als", rank=2,
                                                          outer_iterations=5)],
                              trials_per_cell=1)
        records = run_campaign(cfg)
        assert records_to_csv(records).splitlines()[0] == (
            "m,n,r,snr_db,algorithm_id,trial,seed,mean_sdr_db,"
            "per_source_sdr_db,final_objective,iterations_run,cond_a_ref,error")
        assert timings_to_csv(records).splitlines()[0] == (
            "m,n,r,snr_db,algorithm_id,trial,wall_time_seconds")

    def test_summary_round_trip(self):
        rows = summarize(run_campaign(tiny_config()))
        back = read_summary(rows)
        assert len(back) == len(rows)
        for r1, r2 in zip(rows, back):
            assert r1["algorithm_id"] == r2["algorithm_id"]
            assert r1["mean"] == float(r2["mean"])

    def test_summary_matches_recount_from_csv(self):
        records = run_campaign(tiny_config(trials=3))
        rows = summarize(records)
        text = records_to_csv(records)
        by_algo = {}
        for raw in csv.DictReader(stdio.StringIO(text)):
            by_algo.setdefault(raw["algorithm_id"], []).append(
                float(raw["mean_sdr_db"]))
        for row in rows:
            expected = np.mean(by_algo[row["algorithm_id"]])
            assert row["mean"] == pytest.approx(expected, rel=1e-12)
            assert row["n"] == 3


class TestSummarize:
    def make(self, vals):
        return [TrialRecord(cell={"snr_db": 10.0}, algorithm_id="als",
                            trial=i, seed=i, mean_sdr_db=v)
                for i, v in enumerate(vals)]

    def test_single_record(self):
        row = summarize(self.make([12.5]))[0]
        assert row["mean"] == 12.5
        assert row["sem"] == 0.0
        assert row["n"] == 1

    def test_two_records(self):
        row = summarize(self.make([10.0, 20.0]))[0]
        assert row["mean"] == 15.0
        assert row["median"] == 15.0

    def test_error_rows_counted(self):
        recs = self.make([10.0, 20.0])
        recs.append(TrialRecord(cell={"snr_db": 10.0}, algorithm_id="als",
                                trial=9, seed=9, error="boom"))
        row = summarize(recs)[0]
        assert row["n"] == 2
        assert row["n_errors"] == 1
        assert row["mean"] == 15.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_swept_n_axis_kept(self):
        # the grid's n (column count) must not be overwritten by the
        # trial count, which keeps the column name n
        cfg = tiny_config(trials=2)
        cfg.grid["n"] = [20, 30]
        cfg.algorithms = cfg.algorithms[:1]
        rows = read_summary(summarize(run_campaign(cfg)))
        assert [row["grid_n"] for row in rows] == ["20", "30"]
        assert [row["n"] for row in rows] == ["2", "2"]


class TestOutputsAndPlot:
    def summary_rows(self):
        rows = []
        for snr in (10.0, 15.0, 20.0):
            for algo, base in (("als", 8.0), ("ngmca_s", 14.0)):
                rows.append({"snr_db": snr, "algorithm_id": algo,
                             "n": 4, "n_errors": 0, "mean": base + snr / 2,
                             "median": base + snr / 2, "sem": 0.4})
        return rows

    def test_campaign_outputs_written(self, tmp_path):
        cfg = tiny_config(output_dir=str(tmp_path))
        records = run_campaign(cfg)
        write_campaign_outputs(cfg, records, tmp_path)
        for name in ("results.csv", "timings.csv", "summary.csv",
                     "manifest.json"):
            assert (tmp_path / name).exists()

    def test_polyline_per_algorithm(self, tmp_path):
        out = tmp_path / "fig.svg"
        emit_plot(self.summary_rows(), "snr_db", out)
        svg = out.read_text()
        assert svg.count("<polyline") == 2
        # three vertices per line
        for chunk in svg.split("<polyline")[1:]:
            pts = chunk.split('points="')[1].split('"')[0].split()
            assert len(pts) == 3

    def test_sidecar_csv_matches_summary(self, tmp_path):
        out = tmp_path / "fig.svg"
        emit_plot(self.summary_rows(), "snr_db", out)
        sidecar = out.with_suffix(".csv").read_text()
        rows = list(csv.DictReader(stdio.StringIO(sidecar)))
        expected = {(r["algorithm_id"], r["snr_db"]): r["mean"]
                    for r in self.summary_rows()}
        assert len(rows) == len(expected)
        for raw in rows:
            key = (raw["algorithm_id"], float(raw["snr_db"]))
            assert float(raw["mean"]) == pytest.approx(expected[key])

    def test_empty_summary_raises_and_writes_nothing(self, tmp_path):
        out = tmp_path / "fig.svg"
        with pytest.raises(UnknownAxisError):
            emit_plot([], "snr_db", out)
        assert not out.exists()

    def test_non_numeric_x_left_out_with_warning(self, tmp_path):
        # a mixed SNR axis, read back from summary.csv as the CLI does
        noiseless = {"snr_db": "noiseless", "algorithm_id": "als", "n": 4,
                     "n_errors": 0, "mean": 30.0, "median": 30.0, "sem": 0.2}
        rows = read_summary(self.summary_rows() + [noiseless])
        out = tmp_path / "fig.svg"
        with pytest.warns(UserWarning, match="noiseless"):
            emit_plot(rows, "snr_db", out)
        sidecar = list(csv.DictReader(stdio.StringIO(
            out.with_suffix(".csv").read_text())))
        assert sorted({float(r["snr_db"]) for r in sidecar}) == [10.0, 15.0, 20.0]
        assert len(sidecar) == len(self.summary_rows())

    def test_no_numeric_x_raises(self, tmp_path):
        rows = [dict(r, snr_db="noiseless") for r in self.summary_rows()]
        out = tmp_path / "fig.svg"
        with pytest.raises(UnknownAxisError, match="not numeric"):
            emit_plot(rows, "snr_db", out)
        assert not out.exists()

    def test_statistics_column_is_not_an_axis(self, tmp_path):
        # the trial count n must not be plotted as the instance's n, which
        # summary.csv writes as grid_n
        rows = read_summary([dict(r, n=48, grid_n=200)
                             for r in self.summary_rows()])
        out = tmp_path / "fig.svg"
        with pytest.raises(UnknownAxisError, match="grid_n"):
            emit_plot(rows, "n", out)
        assert not out.exists()

    def test_unknown_axis(self, tmp_path):
        with pytest.raises(UnknownAxisError):
            emit_plot(self.summary_rows(), "voltage", tmp_path / "f.svg")
