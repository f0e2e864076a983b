"""The runtime invariant checker: hooks, observers, clean validated runs."""

from __future__ import annotations

import pytest

from repro.mptcp.connection import MptcpConnection
from repro.net.network import Network
from repro.net.queue import DropTailQueue, ThresholdECNQueue
from repro.sim.engine import Simulator
from repro.sim.taps import (
    VALIDATE,
    activate,
    active,
    attached,
    deactivate,
    requested,
)
from repro.transport.cc import RenoCC
from repro.transport.flow import SinglePathFlow
from repro.validate import InvariantError, Validator, validating

pytestmark = pytest.mark.invariants


def _queue_factory():
    return ThresholdECNQueue(100, 10)


def _two_host_net() -> Network:
    net = Network()
    a = net.add_host("A")
    b = net.add_host("B")
    s = net.add_switch("SW")
    net.connect(a, s, 1e9, 30e-6, queue_factory=_queue_factory)
    net.connect(s, b, 1e9, 30e-6, queue_factory=_queue_factory)
    return net


# ----------------------------------------------------------------------
# The registry (repro.sim.taps) and the validating context
# ----------------------------------------------------------------------


class TestHooks:
    def test_no_validator_by_default(self):
        assert active(VALIDATE) is None
        assert not requested(VALIDATE)

    def test_activate_deactivate_stack(self):
        outer, inner = Validator(), Validator()
        activate(VALIDATE, outer)
        try:
            assert active(VALIDATE) is outer
            activate(VALIDATE, inner)
            assert active(VALIDATE) is inner
            deactivate(VALIDATE, inner)
            assert active(VALIDATE) is outer
        finally:
            deactivate(VALIDATE, outer)
        assert active(VALIDATE) is None

    def test_deactivate_out_of_order_raises(self):
        outer, inner = Validator(), Validator()
        activate(VALIDATE, outer)
        activate(VALIDATE, inner)
        try:
            with pytest.raises(RuntimeError, match="out of order"):
                deactivate(VALIDATE, outer)
            assert active(VALIDATE) is inner  # stack unchanged
        finally:
            deactivate(VALIDATE, inner)
            deactivate(VALIDATE, outer)

    def test_deactivate_empty_raises(self):
        with pytest.raises(RuntimeError, match="no REPRO_VALIDATE tap is active"):
            deactivate(VALIDATE)

    def test_validating_context_manager(self):
        with validating() as validator:
            assert active(VALIDATE) is validator
        assert active(VALIDATE) is None
        assert validator.finished

    def test_validation_requested_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        assert requested(VALIDATE)
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        assert not requested(VALIDATE)
        monkeypatch.delenv("REPRO_VALIDATE")
        assert not requested(VALIDATE)


# ----------------------------------------------------------------------
# Zero-cost default: nothing is observed unless a validator is active
# ----------------------------------------------------------------------


class TestDisabledByDefault:
    def test_observer_slots_default_none(self):
        net = _two_host_net()
        assert net.sim.tap is None
        assert all(link.observer is None for link in net.links)
        assert all(link.queue.observer is None for link in net.links)
        flow = SinglePathFlow(net, "A", "B", net.paths("A", "B")[0],
                              RenoCC(ecn=True), size_bytes=10_000)
        assert flow.sender.observer is None
        assert flow.sender.cc.observer is None


# ----------------------------------------------------------------------
# Registration and clean runs
# ----------------------------------------------------------------------


class TestValidatedRuns:
    def test_clean_single_path_run(self):
        with validating() as validator:
            net = _two_host_net()
            flow = SinglePathFlow(net, "A", "B", net.paths("A", "B")[0],
                                  RenoCC(ecn=True), size_bytes=100_000)
            flow.start()
            net.sim.run(until=0.2)
        assert flow.sender.completed
        assert not validator.violations
        assert validator.checks > 0
        assert validator.watched_objects >= 1 + 4 + 4 + 1  # sim+links+queues+sender

    def test_clean_xmp_connection_run(self):
        with validating() as validator:
            net = _two_host_net()
            conn = MptcpConnection(
                net, "A", "B", [net.paths("A", "B")[0]],
                scheme="xmp", size_bytes=200_000,
            )
            conn.start()
            net.sim.run(until=0.3)
        assert conn.completed
        assert not validator.violations
        # The BOS controller was recognised and law-checked.
        assert validator._bos_observers

    def test_watch_idempotent(self):
        validator = Validator()
        sim = Simulator()
        validator.attach(sim)
        validator.attach(sim)
        queue = DropTailQueue(10)
        validator.watch_queue(queue)
        validator.watch_queue(queue)
        assert len(validator._sim_observers) == 1
        assert len(validator._queue_observers) == 1

    def test_nested_validators_get_their_own_objects(self):
        with validating() as outer:
            Simulator_outer = Network()  # registered with outer
            with validating() as inner:
                net_inner = Network()  # registered with inner only
            assert attached(net_inner.sim, VALIDATE) in inner._sim_observers
        assert attached(Simulator_outer.sim, VALIDATE) in outer._sim_observers
        assert len(outer._sim_observers) == 1

    def test_summary_and_report(self):
        with validating() as validator:
            net = _two_host_net()
            flow = SinglePathFlow(net, "A", "B", net.paths("A", "B")[0],
                                  RenoCC(ecn=True), size_bytes=20_000)
            flow.start()
            net.sim.run(until=0.1)
        summary = validator.summary()
        assert "objects watched" in summary
        assert "0 violations" in summary
        assert validator.report() == ""


# ----------------------------------------------------------------------
# Violation plumbing
# ----------------------------------------------------------------------


class TestViolationPlumbing:
    def test_validating_raises_on_violation(self):
        with pytest.raises(InvariantError, match=r"boom"):
            with validating() as validator:
                validator.record("unit-test", "widget", "boom")

    def test_raise_lists_every_violation_with_context(self):
        validator = Validator()
        validator.record("inv-a", "x", "first")
        validator.record("inv-b", "y", "second")
        with pytest.raises(InvariantError) as excinfo:
            validator.raise_if_violations(context="cell foo/bar")
        message = str(excinfo.value)
        assert "2 invariant violations in cell foo/bar" in message
        assert "[inv-a] x: first" in message
        assert "[inv-b] y: second" in message

    def test_fail_fast(self):
        validator = Validator(fail_fast=True)
        with pytest.raises(InvariantError, match=r"\[unit-test\] widget: boom"):
            validator.record("unit-test", "widget", "boom")

    def test_raise_on_violation_false_collects(self):
        with validating(raise_on_violation=False) as validator:
            validator.record("unit-test", "widget", "boom")
        assert len(validator.violations) == 1


# ----------------------------------------------------------------------
# The campaign runner integration
# ----------------------------------------------------------------------


class TestRunnerIntegration:
    def _spec(self):
        from repro.experiments.fattree_eval import FatTreeScenario
        from repro.runner import RunSpec

        return RunSpec(
            "fattree", FatTreeScenario(duration=0.005, k=4, seed=1)
        )

    def test_execute_unvalidated_by_default(self):
        from repro.runner.registry import execute

        result = execute(self._spec())
        assert result.metrics.invariant_checks == 0

    def test_execute_validates_under_env(self, monkeypatch):
        from repro.runner.registry import execute

        monkeypatch.setenv("REPRO_VALIDATE", "1")
        result = execute(self._spec())
        assert result.metrics.invariant_checks > 0
