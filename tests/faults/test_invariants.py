"""Tests for the runtime invariant checker (clean + corrupted state)."""

import pytest

from repro.faults.invariants import InvariantViolation, RuntimeInvariants
from repro.obs.metrics import MetricsRegistry


def first_occupied(tree):
    for idx, slot, blk in tree.iter_blocks():
        return idx, slot, blk
    raise AssertionError("tree unexpectedly empty")


def empty_slot(tree, idx):
    for slot, blk in enumerate(tree.bucket(idx)):
        if blk is None:
            return slot
    raise AssertionError(f"bucket {idx} unexpectedly full")


class TestCleanState:
    def test_fresh_controller_passes(self, tiny_controller):
        assert RuntimeInvariants(tiny_controller).check() == []

    def test_shadow_controller_passes_after_traffic(self, shadow_controller):
        for addr in range(0, 40, 3):
            shadow_controller.access(addr, "read")
        checker = RuntimeInvariants(shadow_controller)
        assert checker.check() == []
        assert checker.report.clean

    def test_hook_attach_detach(self, tiny_controller):
        checker = RuntimeInvariants(tiny_controller, stride=2).attach()
        assert tiny_controller.post_access_hook is not None
        for addr in range(6):
            tiny_controller.access(addr, "read")
        assert checker.report.checks == 3  # every 2nd access
        checker.detach()
        assert tiny_controller.post_access_hook is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestCorruptionDetection:
    def test_duplicate_real_copy_detected(self, tiny_controller):
        tree = tiny_controller.tree
        idx, slot, blk = first_occupied(tree)
        # Plant a second real copy of the same address elsewhere.
        clone_bucket = tree.num_buckets - 1
        if clone_bucket == idx:
            clone_bucket -= 1
        tree.bucket(clone_bucket)[empty_slot(tree, clone_bucket)] = type(blk)(
            addr=blk.addr, leaf=blk.leaf, version=blk.version
        )
        violations = RuntimeInvariants(
            tiny_controller, policy="degrade"
        ).check()
        assert any("duplicate real copy" in v or "off its mapped path" in v
                   for v in violations)

    def test_posmap_disagreement_detected(self, tiny_controller):
        tree = tiny_controller.tree
        _idx, _slot, blk = first_occupied(tree)
        blk.leaf = (blk.leaf + 1) % tree.num_leaves
        violations = RuntimeInvariants(
            tiny_controller, policy="degrade"
        ).check()
        assert any("disagrees with posmap" in v for v in violations)

    def test_overfull_stash_detected(self, tiny_controller):
        # Accesses route blocks through the stash; then squeeze capacity
        # underneath whatever is resident.
        for addr in range(12):
            tiny_controller.access(addr, "read")
        if tiny_controller.stash.real_count == 0:
            pytest.skip("no blocks resident in the stash after traffic")
        tiny_controller.stash.capacity = 0
        violations = RuntimeInvariants(
            tiny_controller, policy="degrade"
        ).check()
        assert any("stash holds" in v for v in violations)

    def test_stale_shadow_detected(self, shadow_controller):
        for addr in range(0, 60, 2):
            shadow_controller.access(addr, "read")
        tree = shadow_controller.tree
        shadow = None
        for _idx, _slot, blk in tree.iter_blocks():
            if blk.is_shadow:
                shadow = blk
                break
        if shadow is None:
            pytest.skip("no shadow copy materialised in the tree")
        shadow.version += 7  # bit-rot the duplicate's version
        violations = RuntimeInvariants(
            shadow_controller, policy="degrade"
        ).check()
        assert any("stale shadow" in v for v in violations)


class TestPolicies:
    def _corrupt(self, controller):
        _idx, _slot, blk = first_occupied(controller.tree)
        blk.leaf = (blk.leaf + 1) % controller.tree.num_leaves

    def test_raise_policy_aborts(self, tiny_controller):
        self._corrupt(tiny_controller)
        with pytest.raises(InvariantViolation, match="invariant violation"):
            RuntimeInvariants(tiny_controller, policy="raise").check()

    def test_degrade_policy_records_and_warns_once(self, tiny_controller):
        self._corrupt(tiny_controller)
        registry = MetricsRegistry()
        checker = RuntimeInvariants(
            tiny_controller, policy="degrade", registry=registry
        )
        with pytest.warns(RuntimeWarning, match="invariant violation"):
            checker.check()
        checker.check()  # second check stays silent (warn-once)
        assert not checker.report.clean
        assert checker.report.checks == 2
        assert registry.counter("invariants/checks").value == 2
        assert registry.counter("invariants/violations").value >= 2

    def test_degrade_caps_recorded_violations(self, tiny_controller):
        self._corrupt(tiny_controller)
        checker = RuntimeInvariants(
            tiny_controller, policy="degrade", max_recorded=1
        )
        with pytest.warns(RuntimeWarning):
            checker.check()
            checker.check()
        assert len(checker.report.violations) == 1

    def test_bad_policy_rejected(self, tiny_controller):
        with pytest.raises(ValueError):
            RuntimeInvariants(tiny_controller, policy="panic")
        with pytest.raises(ValueError):
            RuntimeInvariants(tiny_controller, stride=0)
