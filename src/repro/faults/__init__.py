"""repro.faults: deterministic fault injection for the witness pipeline.

The dependability argument of the witness is fail-closed certification:
no fault anywhere in the pipeline may ever turn into a certification the
user did not earn.  This package is how that claim is *exercised* rather
than asserted:

* :class:`~repro.faults.plan.FaultPlan` — a frozen, seeded schedule of
  named fault points (:data:`~repro.faults.plan.FAULT_POINTS`), armed
  through ``WitnessConfig(faults=plan)``.
* :class:`~repro.faults.injector.FaultInjector` — the per-service armed
  state: call counters, per-point seeded RNGs, fire accounting.
* The shipped plan catalog (:func:`~repro.faults.plan.shipped_plans`) —
  one plan per failure family, each annotated with what an honest
  session may expect (bit-identical recovery, certify-with-different-
  evidence, or a clean refusal).

Seams stay zero-cost when disarmed: every injection site is guarded by
``if <injector> is not None`` — the same pattern as ``repro.obs``'s
``NULL_SPAN`` — and the witness-lint ``hot-alloc`` rule covers this
package, so the disarmed hot path is statically allocation-free.
"""

from repro.faults.injector import CacheFault, FaultInjector, InjectedFault, RuntimeFaultError
from repro.faults.plan import (
    FAULT_POINTS,
    HONEST_EXPECTATIONS,
    FaultPlan,
    FaultSpec,
    cache_fault_plan,
    forward_raise_plan,
    frame_corruption_plan,
    frame_drop_plan,
    nan_logits_plan,
    shipped_plans,
)

__all__ = [
    "FAULT_POINTS",
    "HONEST_EXPECTATIONS",
    "CacheFault",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RuntimeFaultError",
    "cache_fault_plan",
    "forward_raise_plan",
    "frame_corruption_plan",
    "frame_drop_plan",
    "nan_logits_plan",
    "shipped_plans",
]
