"""Call-ordinal fault budgets stay exact across process partitions."""

import pytest

from repro.faults import FaultPlan, ManualClock
from repro.obs import MetricsRegistry
from repro.streaming import (
    RetryPolicy,
    StreamRecord,
    StreamingContext,
)


# ---------------------------------------------------------------------------
# Picklable operators
# ---------------------------------------------------------------------------

def double(record, worker):
    return StreamRecord(value=record.value * 2, key=record.key)


def workload(n=24):
    return [StreamRecord(value=i, key=str(i)) for i in range(n)]


# ---------------------------------------------------------------------------
# Cross-partition call-ordinal budgets
# ---------------------------------------------------------------------------

def run_faulted(execution, plan_factory, n=20):
    """Distinct keys: matching records deliberately span partitions."""
    clock = ManualClock()
    plan = plan_factory(clock)
    ctx = StreamingContext(
        num_partitions=3,
        metrics=MetricsRegistry(),
        execution=execution,
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay_seconds=0.25, clock=clock
        ),
        fault_plan=plan,
    )
    out = ctx.source().map(double).collector()
    ctx.run_batch([StreamRecord(value=i, key=str(i)) for i in range(n)])
    result = (
        [r.value for r in out.snapshot()],
        ctx.retries_total,
        ctx.quarantined_total,
        [
            (q.record.value, q.attempts, q.error_type)
            for q in ctx.quarantine.snapshot()
        ],
        clock.total_slept,
        plan.injected_total(),
        plan.snapshot(),
    )
    ctx.shutdown()
    return result


class TestCrossPartitionBudgets:
    def test_fail_first_exact_across_partitions(self):
        def plan(clock):
            return FaultPlan(clock=clock).fail_first("operator:map:*", 2)

        serial = run_faulted("serial", plan)
        processes = run_faulted("processes", plan)
        assert serial == processes
        assert serial[1] == 2  # exactly two retries, not up-to-one-per-worker

    def test_fail_nth_exact_across_partitions(self):
        def plan(clock):
            return FaultPlan(clock=clock).fail_nth(
                "operator:map:*", 3, 7, 15
            )

        assert run_faulted("serial", plan) == run_faulted("processes", plan)

    def test_slow_first_exact_across_partitions(self):
        def plan(clock):
            return FaultPlan(clock=clock).slow_first(
                "operator:map:*", 4, seconds=2.0
            )

        serial = run_faulted("serial", plan)
        processes = run_faulted("processes", plan)
        assert serial == processes

    def test_budget_spent_restores_parallel_fanout(self):
        clock = ManualClock()
        plan = FaultPlan(clock=clock).fail_first("operator:map:*", 2)
        ctx = StreamingContext(
            num_partitions=2,
            metrics=MetricsRegistry(),
            execution="processes",
            retry_policy=RetryPolicy.no_wait(max_attempts=3, clock=clock),
            fault_plan=plan,
        )
        ctx.source().map(double).collector()
        assert plan.has_live_call_budget()
        ctx.run_batch(workload(8))
        assert not plan.has_live_call_budget()  # batch 2 fans out in parallel
        ctx.run_batch(workload(8))
        ctx.shutdown()


class TestHasLiveCallBudget:
    def test_empty_plan_has_none(self):
        assert not FaultPlan().has_live_call_budget()

    def test_poison_rules_never_need_sequencing(self):
        plan = FaultPlan().poison("operator:map:*", lambda r: True)
        assert not plan.has_live_call_budget()

    def test_fail_first_live_until_seen(self):
        plan = FaultPlan().fail_first("site", 2)
        assert plan.has_live_call_budget()
        with pytest.raises(Exception):
            plan.invoke("site", lambda: None)
        assert plan.has_live_call_budget()
        with pytest.raises(Exception):
            plan.invoke("site", lambda: None)
        assert not plan.has_live_call_budget()

    def test_fail_nth_live_until_last_ordinal(self):
        plan = FaultPlan().fail_nth("site", 3)
        for _ in range(2):
            plan.invoke("site", lambda: None)
        assert plan.has_live_call_budget()
        with pytest.raises(Exception):
            plan.invoke("site", lambda: None)
        assert not plan.has_live_call_budget()
