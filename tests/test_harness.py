"""Scenario parsing/validation, CSV schemas, determinism, CLI surfaces."""

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bmsim.scenario
from bmsim.cli import main
from bmsim.errors import InvalidInputError, InvariantViolation, ScenarioValidationError
from bmsim.harness import (
    COST_ANCHORS,
    _model_per_join,
    attack_demo,
    calibrate_gas,
    growth_update_events,
    resolve_out_dir,
    run_file,
    sweep,
    write_result_csvs,
)
from bmsim.ledger import GasSchedule, PriceModel, usd_cost
from bmsim.membership import Policy
from bmsim.metrics import CONFIGS_HEADER, JOINS_HEADER, UPDATES_HEADER, VOTES_HEADER
from bmsim.scenario import ScenarioConfig, growth_scenario, load_scenario, scenario_from_dict
from bmsim.simulation import RunResult, SimulationRun, run_scenario


def small_scenario_dict(**overrides):
    data = {
        "name": "tiny",
        "seed": 5,
        "initial_size": 4,
        "churn": [{"op": "join", "node": "m0"}, {"op": "join", "node": "m1"}],
    }
    data.update(overrides)
    return data


# -- scenario parsing -----------------------------------------------------------


def test_scenario_roundtrip(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(small_scenario_dict()))
    sc = load_scenario(str(path))
    assert sc.seed == 5
    assert [op.node for op in sc.churn] == ["m0", "m1"]


def test_scenario_invalid_json_names_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ScenarioValidationError) as err:
        load_scenario(str(path))
    assert err.value.field == "file"


def test_scenario_unknown_policy_named():
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(small_scenario_dict(policy="often"))
    assert err.value.field == "policy"


def test_scenario_leave_of_unknown_node_named():
    data = small_scenario_dict(churn=[{"op": "leave", "node": "ghost"}])
    sc = scenario_from_dict(data)
    with pytest.raises(ScenarioValidationError) as err:
        sc.validate()
    assert err.value.field == "churn[0]"


def test_scenario_duplicate_join_rejected():
    data = small_scenario_dict(churn=[{"op": "join", "node": "m0"}, {"op": "join", "node": "m0"}])
    sc = scenario_from_dict(data)
    with pytest.raises(ScenarioValidationError):
        sc.validate()


def test_scenario_fee_below_cost_rejected():
    sc = scenario_from_dict(small_scenario_dict(registration_fee=10, registration_cost=100))
    with pytest.raises(ScenarioValidationError) as err:
        sc.validate()
    assert err.value.field == "registration_fee"


def test_policy_threshold_above_batching_bound_rejected():
    data = small_scenario_dict(policy="fixed", fixed_t=5)
    sc = scenario_from_dict(data)
    with pytest.raises(ScenarioValidationError) as err:
        sc.validate()
    assert err.value.field == "policy"
    sc.bypass_validation = True
    sc.validate()  # bypass flag admits the crafted case


def test_unknown_gas_constant_rejected():
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(small_scenario_dict(gas={"g_rocket": 5}))
    assert err.value.field == "gas"


MALFORMED = [
    (small_scenario_dict(checkpoint_interval=0), "checkpoint_interval"),
    (small_scenario_dict(confirmation_depth=-3), "confirmation_depth"),
    (small_scenario_dict(seed="x"), "seed"),
    (small_scenario_dict(client={"p_bound": -5}), "client.p_bound"),
    (small_scenario_dict(polcy="every"), "polcy"),
    (small_scenario_dict(initial_size="4"), "initial_size"),
    (small_scenario_dict(initial_size=True), "initial_size"),
    (small_scenario_dict(initial_size=10**400), "initial_size"),
    (small_scenario_dict(price={"foo": 1}), "price"),
    (small_scenario_dict(block={"sd": 0}), "block.sd"),
    (small_scenario_dict(network={"delta": 0}), "network.delta"),
    (small_scenario_dict(network={"delta": float("nan")}), "network.delta"),
    (small_scenario_dict(tob_latency=-1), "tob_latency"),
    (small_scenario_dict(tx_inclusion={"mean": 1.0}), "tx_inclusion"),
    (small_scenario_dict(churn=[{"op": "join", "node": 5}]), "churn[0].node"),
    ([small_scenario_dict()], "file"),
]


@pytest.mark.parametrize("data, field", MALFORMED, ids=[field for _, field in MALFORMED])
def test_malformed_scenario_names_field(data, field):
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(data).validate()
    assert err.value.field == field


# A valid scenario that sets every section, small enough to run in well under
# a second: the fuzz test below replaces one of its values at a time.
FUZZ_BASE = {
    "name": "fuzz",
    "seed": 3,
    "initial_size": 4,
    "churn": [{"op": "join", "node": "m0"}, {"op": "evict", "node": "n2", "by": "n0"}],
    "policy": "every",
    "fixed_t": None,
    "checkpoint_interval": 20.0,
    "confirmation_depth": 4,
    "block": {"mean": 15.0, "sd": 2.0, "min": 1.0},
    "tx_inclusion": {"mean": 27.7, "sd": 24.9, "min": 0.0},
    "gas": {"g_base": 21000, "g_register": 65000},
    "price": {"gas_price_gwei": 93.1, "eth_usd": 386.1},
    "network": {"gst": 0.0, "delta": 0.05, "pre_gst_drop_probability": 0.0, "pre_gst_max_delay": 1.0},
    "tob_latency": 0.95,
    "registration_cost": 100,
    "registration_fee": 100,
    "corruption": [{"node": "n3", "at_time": 5.0, "behaviors": ["silent"], "after_retirement": False}],
    "client": {"mode": "with_bms", "p_bound": 100.0, "reconnect_offset": 10.0},
    "leavers_vote": True,
    "bypass_validation": False,
    "revote_timeout": 200.0,
    "publish_grace": 100.0,
    "valid_poms": ["n2"],
    "max_sim_time": 3000.0,
}


def _value_paths(value, path=()):
    """The path of every value inside `value`, containers included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _value_paths(child, path + (key,))


FUZZ_PATHS = list(_value_paths(FUZZ_BASE))
MISSPELL = "misspell the key"   # a pool entry that renames the key instead
# wrong types, negatives, zero, None and unknown keys; the positive values
# are small, so no accepted case builds a large cluster, and a tiny interval
# that would make a practically endless run exhausts the event budget
FUZZ_POOL = [None, True, "x", [], {}, -1, -2.5, 0, 0.0, 1e-6, 1, 2.5, MISSPELL]


def _mutated(path, value):
    data = copy.deepcopy(FUZZ_BASE)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if value is MISSPELL and isinstance(parent, dict):
        parent["x" + key] = parent.pop(key)
    else:
        parent[key] = {"bogus": 1} if value is MISSPELL else value
    return data


def test_fuzz_base_scenario_runs():
    result = run_scenario(scenario_from_dict(FUZZ_BASE))
    assert result.completed
    assert len(result.joins) == 1


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(path=st.sampled_from(FUZZ_PATHS), value=st.sampled_from(FUZZ_POOL))
def test_fuzzed_scenario_is_rejected_or_runs(path, value):
    try:
        scenario = scenario_from_dict(_mutated(path, value))
        scenario.validate()
    except ScenarioValidationError:
        return
    try:
        result = run_scenario(scenario)
    except InvariantViolation as exc:
        assert str(exc).startswith("event budget exhausted")
        return
    assert result.end_time <= scenario.max_sim_time


def test_validation_is_linear_in_churn_length():
    # the walk keeps counts along the churn and builds no member tuple per op
    start = time.perf_counter()
    growth_scenario(Policy.HALF_F, 4, 10_005).validate()
    assert time.perf_counter() - start < 1.0


def test_each_run_validates_its_scenario_once(tmp_path, monkeypatch):
    """Files, growth sweeps and attack batches are validated in
    `SimulationRun.__init__` and nowhere else; a file is range-checked once."""
    counts = {"runs": 0, "validations": 0, "range_checks": 0}

    def counted(key, function):
        def wrapper(*args, **kwargs):
            if key != "range_checks" or isinstance(args[0], ScenarioConfig):
                counts[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SimulationRun, "__init__", counted("runs", SimulationRun.__init__))
    monkeypatch.setattr(ScenarioConfig, "validate", counted("validations", ScenarioConfig.validate))
    monkeypatch.setattr(bmsim.scenario, "_check_ranges", counted("range_checks", bmsim.scenario._check_ranges))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(small_scenario_dict()))
    run_file(str(path), out=str(tmp_path / "o"))
    assert counts == {"runs": 1, "validations": 1, "range_checks": 1}
    sweep(Policy.EVERY, 4, 6, write=False)
    assert counts["runs"] == counts["validations"] == 2
    attack_demo("with_bms", seeds=[1, 2], write=False)
    assert counts["runs"] == counts["validations"] == 4


# -- CSV output -------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_result():
    return run_scenario(growth_scenario(Policy.EVERY, 4, 6, seed=9))


def test_csv_headers_pinned(tiny_result, tmp_path):
    paths = write_result_csvs(tiny_result, tmp_path)
    assert paths["joins.csv"].read_text().splitlines()[0] == ",".join(JOINS_HEADER)
    assert paths["votes.csv"].read_text().splitlines()[0] == ",".join(VOTES_HEADER)
    assert paths["updates.csv"].read_text().splitlines()[0] == ",".join(UPDATES_HEADER)
    assert paths["configs.csv"].read_text().splitlines()[0] == ",".join(CONFIGS_HEADER)


def test_phase_sum_matches_total_span(tiny_result):
    for record in tiny_result.joins:
        total = (
            record.tx_latency
            + record.confirm_latency
            + record.ordering_latency
            + record.checkpoint_latency
        )
        assert abs((record.processed_at - record.started_at) - total) < 1e-6


def test_identical_seed_identical_csv_bytes(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    ra = run_scenario(growth_scenario(Policy.EVERY, 4, 7, seed=3))
    rb = run_scenario(growth_scenario(Policy.EVERY, 4, 7, seed=3))
    pa = write_result_csvs(ra, out_a)
    pb = write_result_csvs(rb, out_b)
    for name in pa:
        assert pa[name].read_bytes() == pb[name].read_bytes(), name


def test_block_trace_optional(tiny_result, tmp_path):
    paths = write_result_csvs(tiny_result, tmp_path, block_trace=True)
    lines = paths["blocks.csv"].read_text().splitlines()
    assert lines[0] == "height,time,tx_kind,gas_used,accepted"
    assert len(lines) > 1


def test_skip_confirmation_substitutes_constant(tiny_result, tmp_path):
    paths = write_result_csvs(tiny_result, tmp_path, skip_confirmation=555.0)
    for line in paths["joins.csv"].read_text().splitlines()[1:]:
        assert line.split(",")[3] == "555.000000"


# -- out dir resolution ----------------------------------------------------------------


def test_out_dir_resolution(monkeypatch):
    monkeypatch.delenv("BMS_SIM_OUT", raising=False)
    assert resolve_out_dir("x") == Path("x")
    assert resolve_out_dir(None) == Path("bmsim-out")
    monkeypatch.setenv("BMS_SIM_OUT", "/tmp/envdir")
    assert resolve_out_dir(None) == Path("/tmp/envdir")
    assert resolve_out_dir("explicit") == Path("explicit")


# -- calibration -----------------------------------------------------------------------


def test_calibration_under_determined():
    with pytest.raises(InvalidInputError):
        calibrate_gas(anchors={25: COST_ANCHORS[25]})


def test_calibration_hits_anchor_tolerances():
    cal = calibrate_gas()
    assert not cal.degenerate
    assert all(abs(r) <= 0.10 for r in cal.gas_residuals.values())
    assert all(abs(r) <= 0.10 for r in cal.usd_residuals.values())


@pytest.mark.parametrize(
    "known",
    [
        GasSchedule(),
        GasSchedule(g_vote_store=0, g_vote_per_member=565, g_first_vote_init=0,
                    g_update_fixed=114_009, g_update_per_member=0),
        GasSchedule(g_vote_store=0, g_vote_per_member=194, g_first_vote_init=0,
                    g_update_fixed=31_474, g_update_per_member=50_295),
        GasSchedule(g_vote_store=2_500, g_vote_per_member=0, g_first_vote_init=40_000,
                    g_update_fixed=1, g_update_per_member=7),
    ],
    ids=["defaults", "calibrated", "all_anchors", "split_fixed_cost"],
)
def test_calibration_recovers_a_known_schedule(known):
    """Anchors priced exactly by a non-negative schedule at every update of the
    growth run give back its identifiable constants, with the fixed update cost
    (first-vote init plus update fixed) fitted as one sum."""
    price = PriceModel()
    fixed = known.g_first_vote_init + known.g_update_fixed
    params = (known.g_vote_store, known.g_vote_per_member, fixed, known.g_update_per_member)
    anchors = {}
    for event in growth_update_events(Policy.HALF_F, 4, 100):
        gas = _model_per_join(params, known.g_base, event)
        anchors[event[0]] = (gas, usd_cost(gas, price))
    cal = calibrate_gas(anchors, price)
    fit = cal.schedule
    assert not cal.degenerate and cal.max_residual() < 1e-9
    assert all(value >= 0 for value in fit.as_dict().values())
    assert abs(fit.g_vote_store - known.g_vote_store) <= 1
    assert abs(fit.g_vote_per_member - known.g_vote_per_member) <= 1
    assert abs(fit.g_update_per_member - known.g_update_per_member) <= 1
    assert fit.g_first_vote_init == 0 and abs(fit.g_update_fixed - fixed) <= 1


def test_growth_events_match_simulated_updates():
    result = run_scenario(growth_scenario(Policy.HALF_F, 4, 30, seed=4))
    predicted = growth_update_events(Policy.HALF_F, 4, 30)
    assert [(u.size, u.joiners) for u in result.updates] == [
        (new, batch) for new, _, batch in predicted
    ]


# -- CLI ----------------------------------------------------------------------------------


REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, env=None):
    return run_python("-m", "bmsim.cli", *args, env=env)


def run_python(*args, env=None):
    """Run `python *args` from the repo root with `<repo>/src` importable;
    a run that hangs fails the test with `subprocess.TimeoutExpired`."""
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    src = str(REPO_ROOT / "src")
    inherited = full_env.get("PYTHONPATH")
    full_env["PYTHONPATH"] = src + os.pathsep + inherited if inherited else src
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=full_env,
        cwd=REPO_ROOT,
        timeout=120,
    )


def test_cli_run_and_env_output_dir(tmp_path):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(small_scenario_dict()))
    out = tmp_path / "envout"
    proc = run_cli("run", str(scenario_path), env={"BMS_SIM_OUT": str(out)})
    assert proc.returncode == 0, proc.stderr
    assert (out / "joins.csv").exists()


def test_cli_validation_error_exit_code(tmp_path):
    scenario_path = tmp_path / "bad.json"
    scenario_path.write_text(json.dumps(small_scenario_dict(policy="fixed", fixed_t=9)))
    proc = run_cli("run", str(scenario_path), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert "policy" in proc.stderr


def test_cli_malformed_scenario_exits_1_without_traceback(tmp_path):
    scenario_path = tmp_path / "bad.json"
    scenario_path.write_text(json.dumps(small_scenario_dict(checkpoint_interval=0)))
    proc = run_cli("run", str(scenario_path), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert "checkpoint_interval" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "churn, field",
    [
        ([{"op": "join", "node": "m0"}, {"op": "leave", "node": "m0"}, {"op": "join", "node": "m0"}],
         "churn[2]"),
        ([{"op": "leave", "node": "n3"}, {"op": "join", "node": "n3"}], "churn[1]"),
    ],
    ids=["returning_joiner", "returning_initial_member"],
)
def test_cli_rejects_a_join_of_a_former_member(churn, field, tmp_path, capsys):
    scenario_path = tmp_path / "rejoin.json"
    scenario_path.write_text(json.dumps(small_scenario_dict(seed=3, churn=churn)))
    out = tmp_path / "o"
    assert main(["run", str(scenario_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"scenario error: {field}: ")
    assert not out.exists()


def test_cli_runaway_scenario_exits_2_with_recent_events(tmp_path):
    scenario_path = tmp_path / "runaway.json"
    scenario_path.write_text(json.dumps(small_scenario_dict(checkpoint_interval=1e-6)))
    proc = run_cli("run", str(scenario_path), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "event budget exhausted" in proc.stderr
    assert "recent events" in proc.stderr and " checkpoint\n" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_attack_demo_small(tmp_path):
    proc = run_cli("attack-demo", "--mode", "control", "--seeds", "2", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "2/2 runs accepted a forged quorum" in proc.stdout
    body = (tmp_path / "attack_no_bms.csv").read_text().splitlines()
    assert body[0] == "seed,mode,forged_accepted,honest_accepted"


def test_cli_calibrate_gas(tmp_path):
    # a fresh process that imports the CLI and fits the gas schedule loads
    # nothing beyond bmsim and the standard library
    code = (
        "import sys; before = set(sys.modules); import bmsim.cli; "
        f"code = bmsim.cli.main(['calibrate-gas', '--out', {str(tmp_path)!r}]); "
        "print(*sorted(set(sys.modules) - before)); sys.exit(code)"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[0] for name in proc.stdout.splitlines()[-1].split()}
    assert "bmsim" in loaded
    assert loaded - {"bmsim"} <= sys.stdlib_module_names
    schedule = json.loads((tmp_path / "gas_schedule.json").read_text())
    assert schedule["g_base"] == 21000


@pytest.mark.parametrize(
    "anchors",
    [None, [[5, "x", 1.0], [25, 113314, 3.88]], [[5, 166640], [25, 113314, 3.88]], [[5, 166640, 5.71]]],
    ids=["missing_file", "non_numeric", "short_row", "one_row"],
)
def test_cli_calibrate_gas_rejects_bad_anchors(tmp_path, anchors):
    path = tmp_path / "anchors.json"
    if anchors is not None:
        path.write_text(json.dumps(anchors))
    proc = run_cli("calibrate-gas", "--anchors", str(path), "--out", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert "--anchors" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_attack_demo_api_seeds():
    report = attack_demo("no_bms", seeds=[5, 6], write=False)
    assert report.runs_with_forgery == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sweep", "--policy", "t1", "--from", "100", "--to", "4"], "--to"),
        (["sweep", "--policy", "t1", "--from", "4", "--to", "4"], "--to"),
        (["sweep", "--policy", "t1", "--from", "0"], "--from"),
        (["sweep", "--policy", "t1", "--from", "20000", "--to", "20001"], "--from"),
        (["attack-demo", "--mode", "bms", "--seeds", "0"], "--seeds"),
        (["attack-demo", "--mode", "bms", "--seeds", "-3"], "--seeds"),
    ],
    ids=["to_below_from", "to_equals_from", "zero_from", "from_above_initial_size_bound",
         "zero_seeds", "negative_seeds"],
)
def test_cli_rejects_bad_arguments_by_flag(argv, flag, tmp_path, capsys):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{flag}: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--policy", "t1", "--to", "6"], ["attack-demo", "--mode", "bms", "--seeds", "2"]],
    ids=["sweep", "attack-demo"],
)
def test_cli_capped_batch_exits_2(argv, tmp_path, capsys, monkeypatch):
    def capped(scenario):
        return RunResult(scenario.name, scenario.seed, scenario.max_sim_time, False, [], [], [], [], [],
                         scenario.price)

    monkeypatch.setattr("bmsim.harness.run_scenario", capped)
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "hit the simulation cap" in err and len(err.splitlines()) == 1
    assert not out.exists()
