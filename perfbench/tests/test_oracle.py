"""Self-tests of the benchmark: the oracle rejects wrong responses, the
generators are deterministic, and the seeded workloads pass unmodified.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import sys

import pytest

import oracle
import run
import workloads
from oracle import Request


@pytest.fixture(scope="module")
def spawner():
    run.OUT.mkdir(exist_ok=True)
    spawner = run.Spawner()
    run.set_up(spawner)
    return spawner


def respond(spawner, req):
    return spawner.run([sys.executable, "-m", "moduli_strata.cli", *req.argv])


PLAN = Request(("plan", "--fixed", "1,2", "--varying", "3,4", "--json"), "plan", 0,
               {"flavor": "symplectic", "fixed": [1, 2], "varying": [3, 4]})
VERIFY = Request(("verify", "C5.6", "--g-max", "5", "--json"), "verify", 0, {"lemma": "C5.6", "g_max": 5})


class TestOracleRejectsMutations:
    def test_accepts_the_real_responses(self, spawner):
        for req in (PLAN, VERIFY):
            res = respond(spawner, req)
            assert oracle.check(req, res.code, res.stdout, res.stderr) is None

    def test_wrong_d_max(self, spawner):
        res = respond(spawner, PLAN)
        payload = json.loads(res.stdout)
        payload["result"]["d_max"] += 1
        assert "d_max" in oracle.check(PLAN, res.code, json.dumps(payload), res.stderr)

    def test_wrong_exit_code(self, spawner):
        res = respond(spawner, PLAN)
        assert "exit code" in oracle.check(PLAN, 3, res.stdout, res.stderr)

    def test_truncated_json(self, spawner):
        res = respond(spawner, PLAN)
        assert "invalid JSON" in oracle.check(PLAN, res.code, res.stdout[: len(res.stdout) // 2], res.stderr)

    def test_verify_with_zero_cases(self, spawner):
        res = respond(spawner, VERIFY)
        payload = json.loads(res.stdout)
        payload["result"]["cases"] = []
        payload["result"]["summary"]["cases"] = 0
        assert "zero" in oracle.check(VERIFY, res.code, json.dumps(payload), res.stderr)

    def test_traceback_is_a_failure(self, spawner):
        res = respond(spawner, PLAN)
        assert oracle.check(PLAN, res.code, res.stdout, "Traceback (most recent call last):\n") is not None


class TestOracleArithmetic:
    def test_proper_partition_counts(self):
        # p(n) - 1 for n = 2..8
        assert [len(oracle.proper_partitions(n)) for n in range(2, 9)] == [1, 2, 4, 6, 10, 14, 21]

    def test_l32_box_at_default(self):
        assert oracle.verify_case_count("L3.2", 6) == 4620


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_same_seed_same_requests(self, name):
        assert workloads.requests_for(name, 7) == workloads.requests_for(name, 7)
        assert workloads.requests_for(name, 7) != workloads.requests_for(name, 8)

    def test_cli_small_holds_golden_calls_and_every_exit_code(self):
        reqs = workloads.requests_for("cli-small", 0)
        assert all(g in reqs for g in workloads.GOLDEN)
        assert {r.argv[0] for r in reqs} >= {"plan", "strata", "gamma", "verify", "kodaira", "realize"}
        assert {r.expect_exit for r in reqs} == {0, 1, 2, 3}

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_no_unsettled_inputs(self, name):
        for seed in range(20):
            for req in workloads.requests_for(name, seed):
                assert not {"--out", "--timing", "--witness-all"} & set(req.argv)
                if req.kind == "verify":
                    assert req.params["g_max"] >= 2


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert sum(1 for i in range(100) if i > value) == 10


def test_trace_worker_nests_partitions_under_hecke_groups(spawner):
    spans_file = run.OUT / "test.spans"
    res = spawner.run([sys.executable, str(run.HERE / "trace_worker.py"), str(spans_file), "3",
                       "--", "gamma", "--g", "5", "--json"])
    req = Request(("gamma", "--g", "5", "--json"), "gamma", 0, {"g": 5})
    assert oracle.check(req, res.code, res.stdout, res.stderr) is None
    trace = json.loads(spans_file.read_text())
    spans_file.unlink()
    names = [s[0] for s in trace["spans"]]
    assert names[0] == "cli.run" and trace["spans"][0][4] is None
    inner = names.index("partitions.enumerate_matrix_types")
    assert names[trace["spans"][inner][4]] == "hecke_groups.max_product_dim"
    assert trace["caches"]["partitions.canonical_entries"][1] > 0


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_workload_has_no_failures(spawner, name, seed):
    done = run.run_pass(spawner, workloads.requests_for(name, seed), traced=False)
    assert done.failures == []
