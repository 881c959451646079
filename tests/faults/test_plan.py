"""FaultPlan/FaultRule spec protocol, env gating, and seeded determinism.

The fault plane's contract: everything crosses process boundaries
through strings (``REPRO_FAULTS`` gate + ``REPRO_FAULT_PLAN`` spec),
every plan round-trips through its spec, and a ``(plan seed, worker id,
incarnation)`` triple names a bit-for-bit reproducible fault stream —
chaos runs replay.
"""

import pytest

from repro import faults
from repro.errors import ParameterError
from repro.faults import PLANS, SITES, FaultPlan, FaultRule


@pytest.fixture(autouse=True)
def _disarm():
    """No test leaves the process armed (hooks fire in *this* process)."""
    yield
    faults.uninstall()


class TestSpecRoundtrip:
    def test_every_canned_plan_roundtrips(self):
        for name, plan in PLANS.items():
            assert plan.name == name
            assert FaultPlan.parse(plan.spec()) == plan

    def test_full_policy_roundtrip(self):
        rule = FaultRule(
            "worker.wedge", p=0.25, count=3, after=7, duration=1.5, fresh_only=True
        )
        plan = FaultPlan("storm", 42, (rule, FaultRule("result.drop", p=0.1)))
        assert plan.spec() == "storm:42:worker.wedge@0.25x3+7~1.5!,result.drop@0.1"
        assert FaultPlan.parse(plan.spec()) == plan

    def test_bare_site_defaults_to_certain(self):
        plan = FaultPlan.parse("p:0:task.crash")
        assert plan.rules == (FaultRule("task.crash", p=1.0),)

    @pytest.mark.parametrize(
        "spec",
        [
            "no-seed-section",
            "name:notanint:task.crash",
            "name:1:task.crash@nope",
            ":1:task.crash",
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ParameterError):
            FaultPlan.parse(spec)

    def test_unknown_site_rejected(self):
        with pytest.raises(ParameterError, match="unknown fault site"):
            FaultRule("disk.melt")

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_probability_bounds(self, p):
        with pytest.raises(ParameterError, match="probability"):
            FaultRule("task.crash", p=p)

    @pytest.mark.parametrize("kwargs", [{"count": -2}, {"after": -1}, {"duration": -0.5}])
    def test_rule_bounds(self, kwargs):
        with pytest.raises(ParameterError, match="bad rule bounds"):
            FaultRule("task.crash", **kwargs)

    def test_sites_registry_is_total(self):
        for site in SITES:
            assert FaultRule(site).site == site


class TestEnvProtocol:
    @pytest.mark.parametrize("gate", ["", "0", "off", "false", "no", "OFF", "No"])
    def test_falsey_gate_disables(self, gate):
        env = {faults.ENV_GATE: gate, faults.ENV_PLAN: "crashy"}
        assert faults.enabled_in_env(env) is None

    def test_gate_without_plan_is_off(self):
        assert faults.enabled_in_env({faults.ENV_GATE: "1"}) is None

    def test_named_plan_resolves_from_registry(self):
        env = {faults.ENV_GATE: "1", faults.ENV_PLAN: "torn-writer"}
        assert faults.enabled_in_env(env) == PLANS["torn-writer"]

    def test_spec_plan_parses(self):
        env = {faults.ENV_GATE: "1", faults.ENV_PLAN: "mine:9:result.drop@0.5x2"}
        plan = faults.enabled_in_env(env)
        assert plan == FaultPlan("mine", 9, (FaultRule("result.drop", p=0.5, count=2),))

    def test_arm_env_roundtrips(self):
        env: "dict[str, str]" = {}
        faults.arm_env(PLANS["mayhem"], env)
        assert faults.enabled_in_env(env) == PLANS["mayhem"]

    def test_maybe_install_from_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_GATE, "1")
        monkeypatch.setenv(faults.ENV_PLAN, "quiet")
        assert not faults.active
        faults.maybe_install_from_env()
        assert faults.active
        assert faults.current_plan() == PLANS["quiet"]
        faults.uninstall()
        assert not faults.active and faults.current_plan() is None

    def test_word_gate_arms_without_breaking_obs(self, monkeypatch):
        # Any non-falsey spelling arms the plane, and the gate is read by
        # repro.faults alone: the obs switch must not choke on it.
        from repro import obs, tuning

        monkeypatch.setenv(faults.ENV_GATE, "armed")
        monkeypatch.setenv(faults.ENV_PLAN, "crashy")
        tuning.reset()
        try:
            obs.inc("x")
        finally:
            tuning.reset()
        assert faults.enabled_in_env() == PLANS["crashy"]

    def test_maybe_install_respects_existing_plan(self, monkeypatch):
        faults.install(PLANS["quiet"])
        monkeypatch.setenv(faults.ENV_GATE, "1")
        monkeypatch.setenv(faults.ENV_PLAN, "crashy")
        faults.maybe_install_from_env()  # already armed: no clobber
        assert faults.current_plan() == PLANS["quiet"]


class TestSeededDeterminism:
    """The fault stream is a pure function of (plan seed, worker, incarnation)."""

    def _decisions(self, plan, worker_id, incarnation, rounds=64):
        faults.install(plan)
        faults.worker_reset(worker_id, incarnation)
        return [faults.on_result("echo")[0] for _ in range(rounds)]

    def test_stream_replays_bit_identically(self):
        plan = FaultPlan("t", 123, (FaultRule("result.drop", p=0.5),))
        first = self._decisions(plan, 3, 0)
        assert "drop" in first and "send" in first  # p=0.5 really mixes
        assert self._decisions(plan, 3, 0) == first

    def test_streams_differ_across_worker_and_incarnation(self):
        plan = FaultPlan("t", 123, (FaultRule("result.drop", p=0.5),))
        base = self._decisions(plan, 3, 0)
        assert self._decisions(plan, 4, 0) != base
        assert self._decisions(plan, 3, 1) != base

    def test_fresh_only_exempts_respawned_incarnations(self):
        plan = FaultPlan("t", 1, (FaultRule("result.drop", p=1.0, fresh_only=True),))
        assert self._decisions(plan, 0, 0, rounds=4) == ["drop"] * 4
        assert self._decisions(plan, 0, 1, rounds=4) == ["send"] * 4

    def test_count_cap_and_after_window(self):
        plan = FaultPlan("t", 1, (FaultRule("result.drop", p=1.0, count=2, after=1),))
        decisions = self._decisions(plan, 0, 0, rounds=6)
        assert decisions == ["send", "drop", "drop", "send", "send", "send"]
        assert faults.fired() == {"result.drop": 2}

    def test_delay_carries_rule_duration(self):
        plan = FaultPlan("t", 1, (FaultRule("result.delay", p=1.0, duration=0.25),))
        faults.install(plan)
        faults.worker_reset(0, 0)
        assert faults.on_result("echo") == ("delay", 0.25)

    def test_worker_only_hooks_are_parent_noops(self):
        # task.crash at p=1 would os._exit(43) if the parent gate failed.
        plan = FaultPlan(
            "t", 1, (FaultRule("task.crash", p=1.0), FaultRule("result.drop", p=1.0))
        )
        faults.install(plan)
        faults.on_task_start("echo")  # still alive: parent is exempt
        assert faults.on_result("echo") == ("send", 0.0)
        assert faults.fired() == {}

    def test_obs_tasks_exempt_in_workers(self):
        plan = FaultPlan("t", 1, (FaultRule("task.crash", p=1.0),))
        faults.install(plan)
        faults.worker_reset(0, 0)
        faults.on_task_start("obs_snapshot")  # still alive
        assert faults.fired() == {}

    def test_shm_hooks_fire_in_any_process(self):
        plan = FaultPlan(
            "t",
            1,
            (FaultRule("shm.alloc", p=1.0, count=1), FaultRule("shm.attach", p=1.0, count=1)),
        )
        faults.install(plan)  # parent role on purpose
        with pytest.raises(OSError, match="allocation"):
            faults.on_shm_create("block-a")
        faults.on_shm_create("block-a")  # count burned: heals
        with pytest.raises(OSError, match="attach"):
            faults.on_shm_attach("block-b")
        faults.on_shm_attach("block-b")

    def test_uninstalled_hooks_are_inert(self):
        assert faults.on_result("echo") == ("send", 0.0)
        faults.on_task_start("echo")
        faults.on_shm_create("x")
        faults.on_shm_attach("x")
        assert faults.fired() == {}
