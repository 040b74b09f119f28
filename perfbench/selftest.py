"""Tests of the benchmark's output checks: each accepts a real output of the
program and rejects a deliberately corrupted copy of it.

Run from the repository root with either of

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py
"""

import itertools
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from ngmca import algorithms, bench, datagen, metrics  # noqa: E402

warnings.simplefilter("ignore")


def rejects(check, *args, **kwargs) -> bool:
    try:
        check(*args, **kwargs)
    except checks.CheckError:
        return True
    return False


def small_instance(seed=3, p_s=0.3):
    return datagen.gen_instance(datagen.InstanceSpec(
        m=60, n=80, r=5, p_S=p_s, snr_db=20.0, seed=seed))


def ngmca_output():
    inst = small_instance()
    pair = algorithms.run_algorithm(
        inst.y, algorithms.AlgorithmConfig("ngmca_s", rank=5, seed=4))
    return inst, pair, metrics.pair_sources(pair.s, inst.s_ref, inst.z)


def test_factors():
    inst, pair, _ = ngmca_output()
    checks.check_factors(pair.a, pair.s, 60, 80, 5)
    s = pair.s.copy()
    i, j = np.argwhere(s > 0)[0]
    s[i, j] = -s[i, j]
    assert rejects(checks.check_factors, pair.a, s, 60, 80, 5)
    a = pair.a.copy()
    a[0, 0] = np.nan
    assert rejects(checks.check_factors, a, pair.s, 60, 80, 5)
    assert rejects(checks.check_factors, pair.a, pair.s[:4], 60, 80, 5)


def test_assignment_matches_enumeration():
    gen = np.random.default_rng(0)
    for r in (1, 2, 4, 6):
        for _ in range(20):
            score = gen.normal(size=(r, r))
            score[gen.random((r, r)) < 0.3] = -checks.SDR_CAP_DB
            perm = checks.max_assignment(score)
            best = max(sum(score[i, p[i]] for i in range(r))
                       for p in itertools.permutations(range(r)))
            assert abs(score[np.arange(r), perm].sum() - best) <= 1e-12


def test_closed_form_sdr_matches_program():
    inst, pair, _ = ngmca_output()
    ours = checks.sdr_matrix(pair.s, inst.s_ref)
    for i, j in itertools.product(range(5), repeat=2):
        theirs = metrics.sdr(metrics.decompose_bss(pair.s[i], inst.s_ref,
                                                   inst.z, j))
        assert abs(np.clip(theirs, -300, 300) - np.clip(ours[i, j], -300, 300)) \
            <= checks.SDR_TOL_DB
    dead = pair.s.copy()
    dead[0] = 0.0
    assert checks.sdr_matrix(dead, inst.s_ref)[0].max() == -np.inf


def test_pairing():
    inst, pair, res = ngmca_output()
    args = (pair.s, inst.s_ref)
    checks.check_pairing(*args, res.per_source_sdr_db, res.mean_sdr_db,
                         res.permutation)
    checks.check_pairing(*args, res.per_source_sdr_db, res.mean_sdr_db)
    swapped = res.permutation.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert rejects(checks.check_pairing, *args, res.per_source_sdr_db,
                   res.mean_sdr_db, swapped)
    shifted = res.per_source_sdr_db.copy()
    shifted[2] += 0.01
    assert rejects(checks.check_pairing, *args, shifted, res.mean_sdr_db,
                   res.permutation)
    assert rejects(checks.check_pairing, *args, shifted, res.mean_sdr_db)
    assert rejects(checks.check_pairing, *args, res.per_source_sdr_db,
                   res.mean_sdr_db + 0.01, res.permutation)
    assert rejects(checks.check_pairing, *args, res.per_source_sdr_db,
                   res.mean_sdr_db, np.zeros(5, dtype=int))


def test_oracle():
    inst = small_instance()
    s = algorithms.oracle_solve(inst.y, inst.a_ref, 1.0)
    checks.check_oracle(inst.a_ref, s, inst.y)
    row = int(np.argmax((s > 0).sum(axis=1)))
    perturbed = s.copy()
    perturbed[row] *= 1.001
    assert rejects(checks.check_oracle, inst.a_ref, perturbed, inst.y)
    # a different lambda per row still passes: it is inferred, not assumed
    checks.check_oracle(inst.a_ref,
                        algorithms.oracle_solve(inst.y, inst.a_ref, 3.0), inst.y)


def test_stationary():
    inst, pair, _ = ngmca_output()
    checks.check_stationary(pair.a, pair.s, inst.y)
    a = pair.a.copy()
    a[:, 0] *= 1.01
    assert rejects(checks.check_stationary, a, pair.s, inst.y)
    s = pair.s.copy()
    s[1] *= 0.99
    assert rejects(checks.check_stationary, pair.a, s, inst.y)


def test_campaign():
    cfg = bench.BenchmarkConfig(
        grid={"m": [20], "n": [20], "r": [2], "p_S": [0.4],
              "snr_db": [10.0, 20.0]},
        algorithms=[algorithms.AlgorithmConfig("als", rank=2, outer_iterations=20),
                    algorithms.AlgorithmConfig("oracle", rank=2)],
        trials_per_cell=2, base_seed=5)
    records = bench.run_campaign(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        bench.write_campaign_outputs(cfg, records, Path(tmp))
        results = (Path(tmp) / bench.RESULTS_CSV).read_text()
        summary = (Path(tmp) / bench.SUMMARY_CSV).read_text()
    trial = bench.records_to_csv(bench.run_trial(cfg, cfg.cells()[1], 1))
    checks.check_campaign(results, summary, trial, 8, 2)
    row = trial.splitlines()[1]
    mismatched = results.replace(row, row.replace(",als,", ",als ,"))
    assert rejects(checks.check_campaign, mismatched, summary, trial, 8, 2)
    assert rejects(checks.check_campaign, results, summary, trial, 9, 2)
    assert rejects(checks.check_campaign, results, summary, trial, 8, 3)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
