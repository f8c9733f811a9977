"""Cycle-level timing model of the Rocket in-order core (Fig. 2a).

The model replays a committed-path dynamic trace through a 5-stage
in-order pipeline abstraction:

- a fetch engine with an L1 I-cache, ITLB, BHT+BTB predictor, and an
  instruction buffer speaking ready/valid to decode (signal taps ③ of
  the motivating example);
- a single-issue execute stage with a register scoreboard (load-use,
  long-latency, mul/div, and CSR interlocks), a blocking L1 D-cache and
  DTLB, and execute-stage branch resolution with frontend flush and
  redirect on mispredicts (①②④⑤ in Fig. 2a).

Every cycle the model emits the lane-bitmask signal dictionary described
in :mod:`repro.cores.base`; the Rocket rows of Table I plus the two raw
handshake taps ``ibuf_valid``/``ibuf_ready`` (which the paper adds to the
trace, not the PMU) are all produced here.

Two execution paths produce bit-identical results (docs/performance.md):

- the *traced* path materializes the per-cycle signal dictionary and
  feeds it to attached :class:`SignalObserver` instances — required by
  the PMU counter models and the cycle tracer.  It is a per-cycle
  generator (:meth:`RocketCore.steps`), so the multicore harness can
  step several cores in lockstep on one thread;
- the *fast* path (used automatically when no observer or fault hook is
  attached, forceable via ``run(..., fast_path=...)``) skips the
  per-cycle record allocation entirely and accumulates event totals
  in place, which roughly halves single-run wall-clock time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ...isa.columnar import ColumnarTrace
from ...isa.dyn_trace import DynamicTrace, DynInst
from ...isa.instructions import InstrClass
from ...uarch.branch import Prediction, RocketBranchPredictor
from ...uarch.cache import Cache, MemorySystem
from ...uarch.tlb import L2_TLB_HIT_LATENCY, PTW_LATENCY, TlbHierarchy
from ..base import (CoreFaultHook, CoreResult, CoreSteps, EventAccumulator,
                    RocketConfig, SignalObserver, check_cycle_budget,
                    check_run_completed, resolve_timing_engine, run_steps)
from ..descriptors import build_rocket_table

_SAFETY_CYCLES_PER_INST = 400

#: Commit-class event name per functional class ("arith" for the rest).
_CLASS_SIGNAL = {
    InstrClass.LOAD: "load", InstrClass.FP_LOAD: "load",
    InstrClass.STORE: "store", InstrClass.FP_STORE: "store",
    InstrClass.AMO: "atomic",
    InstrClass.BRANCH: "branch",
    InstrClass.FENCE: "fence",
    InstrClass.SYSTEM: "system", InstrClass.CSR: "system",
}

#: Total mapping (no ``.get`` default needed in the hot loop).
_CLASS_SIGNAL_FULL = {cls: _CLASS_SIGNAL.get(cls, "arith")
                      for cls in InstrClass}

#: Every event name the fast path can assert, pre-seeded to zero so the
#: hot loop is a bare ``totals[name] += 1`` (zero entries are stripped
#: before the result is built, matching the traced accumulator).
_FAST_EVENT_NAMES = (
    "cycles", "csr_interlock", "dcache_blocked", "muldiv_interlock",
    "load_use_interlock", "long_latency_interlock", "instr_issued",
    "instr_retired", "load", "store", "atomic", "branch", "fence",
    "system", "arith", "dtlb_miss", "l2_tlb_miss", "dcache_miss",
    "branch_resolved", "cf_target_mispredict", "cobr_mispredict",
    "recovering", "fetch_bubbles", "icache_blocked", "itlb_miss",
    "icache_miss", "ibuf_valid", "ibuf_ready",
)


class _FetchedInst:
    """An instruction sitting in the instruction buffer."""

    __slots__ = ("inst", "prediction", "indirect_prediction")

    def __init__(self, inst: DynInst, prediction: Optional[Prediction],
                 indirect_prediction: Optional[int]) -> None:
        self.inst = inst
        self.prediction = prediction
        self.indirect_prediction = indirect_prediction


class RocketCore:
    """Trace-driven Rocket timing model."""

    def __init__(self, config: RocketConfig = RocketConfig(),
                 memory: Optional[MemorySystem] = None,
                 observers: Sequence[SignalObserver] = ()) -> None:
        self.config = config
        self.memory = memory or MemorySystem.build(l1d_config=config.l1d)
        self.l1i = self.memory.l1i
        self.l1d: Cache = self.memory.blocking_l1d()
        self.tlbs = TlbHierarchy()
        self.predictor = RocketBranchPredictor(
            bht_entries=config.bht_entries, btb_entries=config.btb_entries)
        self.observers: List[SignalObserver] = list(observers)
        self.fault_hook: Optional[CoreFaultHook] = None

    def add_observer(self, observer: SignalObserver) -> None:
        self.observers.append(observer)

    # ------------------------------------------------------------------

    def run(self, trace: DynamicTrace,
            max_cycles: Optional[int] = None,
            fast_path: Optional[bool] = None,
            engine: Optional[str] = None) -> CoreResult:
        """Replay *trace* and return per-event totals.

        *max_cycles* arms a watchdog (default off): exceeding the budget
        raises :class:`~repro.isa.errors.RunTimeout` instead of spinning
        until the internal safety stop silently truncates the run.

        *fast_path* selects the execution path: ``None`` (default) picks
        the fast accumulate-in-place loop exactly when no observer and
        no fault hook is attached, ``False`` forces the traced loop, and
        ``True`` forces the fast loop (an error when an observer or
        fault hook needs the per-cycle records it skips).  Both paths
        produce bit-identical :class:`CoreResult` values.

        *engine* selects the timing-engine implementation on the fast
        path (``None`` defers to ``REPRO_TIMING_ENGINE``, default
        ``columnar``): the columnar engine reads the trace columns
        through a compiled descriptor table, the ``objects`` engine
        walks materialized ``DynInst`` records.  Both engines are
        bit-identical (``tests/test_timing_engine.py``); a
        ``DynamicTrace`` input always uses the object engine.
        """
        traceless = not self.observers and self.fault_hook is None
        engine = resolve_timing_engine(engine)
        if fast_path is None:
            fast_path = traceless
        elif fast_path and not traceless:
            raise ValueError(
                "fast_path=True skips per-cycle signal records, but an "
                "observer or fault hook is attached and needs them")
        self.reset_run_state()
        if fast_path:
            if engine == "columnar" and isinstance(trace, ColumnarTrace):
                return self._run_columnar(trace, max_cycles)
            return self._run_fast(trace, max_cycles)
        return self._run_traced(trace, max_cycles)

    def reset_run_state(self) -> None:
        """Clear per-run scratch state (audited batch-path contract).

        Rocket's loops keep all transient pipeline state in run-local
        variables, so today this is a no-op — it exists so the per-run
        vs. warm-structure split is explicit and auditable in both
        cores (see :meth:`repro.cores.boom.BoomCore.reset_run_state`).
        The caches, TLBs, and predictor deliberately stay warm across
        runs on one instance; the batched grid engine therefore builds
        a fresh core per grid point so no state crosses configs.
        """

    # ------------------------------------------------------------------
    # traced path: per-cycle signal dictionaries, observers, fault hooks
    # ------------------------------------------------------------------

    def _run_traced(self, trace: DynamicTrace,
                    max_cycles: Optional[int]) -> CoreResult:
        return run_steps(self.steps(trace, max_cycles))

    def steps(self, trace: DynamicTrace,
              max_cycles: Optional[int] = None) -> CoreSteps:
        """The traced loop as a generator, one ``yield`` per cycle.

        Each ``next()`` simulates one cycle and parks at the top of the
        following one; the first ``next()`` runs the set-up and parks at
        the top of cycle 0.  The generator returns the
        :class:`CoreResult`.  :meth:`_run_traced` drives it straight to
        the end; the multicore harness interleaves several cores' steps
        over one shared uncore.  The caller resets per-run state first.
        """
        config = self.config
        accumulator = EventAccumulator()
        observers = self.observers
        total = len(trace)
        instructions = trace.instructions

        ibuf: Deque[_FetchedInst] = deque()
        ibuf_capacity = config.ibuf_entries

        fetch_idx = 0
        retired = 0
        cycle = 0
        safety_limit = total * _SAFETY_CYCLES_PER_INST + 10_000
        budget = safety_limit + 1 if max_cycles is None else max_cycles
        fault_hook = self.fault_hook

        # Scoreboard: unified reg id -> (ready_cycle, producer_kind)
        reg_ready = [0] * 64
        reg_producer = [""] * 64

        fetch_resume_at = 0       # frontend may fetch from this cycle on
        icache_refill_until = 0   # an I$ refill is in flight until then
        recovering = False        # flush happened, no valid packet yet
        recovering_from = 0       # first cycle the window is visible
        dcache_busy_until = 0     # blocking D$ refill in flight
        div_busy_until = 0
        serialize_until = 0       # CSR/fence pipeline drain

        while retired < total and cycle < safety_limit:
            if cycle >= budget:
                check_cycle_budget(cycle, max_cycles,
                                   workload=trace.program_name,
                                   retired=retired, total=total)
            yield
            if fault_hook is not None and fault_hook.stall_cycle(cycle):
                # Injected stall: the whole core freezes this cycle.
                cycle += 1
                continue
            signals: Dict[str, int] = {"cycles": 1}

            # ---------------- execute / retire ------------------------
            issued_this_cycle = False
            if ibuf:
                entry = ibuf[0]
                inst = entry.inst
                stall = False

                if serialize_until > cycle:
                    stall = True
                    signals["csr_interlock"] = 1
                if not stall and inst.is_mem and dcache_busy_until > cycle:
                    stall = True
                    signals["dcache_blocked"] = 1
                if not stall and inst.cls == InstrClass.DIV \
                        and div_busy_until > cycle:
                    stall = True
                    signals["muldiv_interlock"] = 1
                if not stall:
                    for src in inst.srcs:
                        if reg_ready[src] > cycle:
                            stall = True
                            producer = reg_producer[src]
                            if producer == "load":
                                if reg_ready[src] - cycle > 4:
                                    signals["dcache_blocked"] = 1
                                    signals["long_latency_interlock"] = 1
                                else:
                                    signals["load_use_interlock"] = 1
                            elif producer in ("mul", "div"):
                                signals["muldiv_interlock"] = 1
                            else:
                                signals["long_latency_interlock"] = 1
                            break

                if not stall:
                    ibuf.popleft()
                    issued_this_cycle = True
                    retired += 1
                    signals["instr_issued"] = 1
                    signals["instr_retired"] = 1
                    signals[_CLASS_SIGNAL.get(inst.cls, "arith")] = 1
                    cycle_after, dcache_refill_until = self._execute(
                        inst, entry, cycle, signals, reg_ready, reg_producer)
                    if cycle_after is not None:
                        # Control-flow mispredict: flush + redirect.  The
                        # Recovering window opens on the next cycle (the
                        # flush cycle itself still retired the branch).
                        ibuf.clear()
                        fetch_idx = inst.index + 1
                        fetch_resume_at = cycle_after
                        recovering = True
                        recovering_from = cycle + 1
                    if inst.cls == InstrClass.DIV:
                        div_busy_until = cycle + inst.latency
                    elif inst.cls == InstrClass.CSR:
                        serialize_until = cycle + 2
                    elif inst.is_fence:
                        # Fence drains the pipeline and refetches.
                        serialize_until = cycle + 3
                        if inst.mnemonic == "fence.i":
                            self.l1i.flush()
                    elif inst.is_mem:
                        dcache_busy_until = max(dcache_busy_until,
                                                dcache_refill_until)
            else:
                backend_ready = (serialize_until <= cycle
                                 and dcache_busy_until <= cycle)
                if recovering and cycle >= recovering_from:
                    signals["recovering"] = 1
                elif backend_ready and not recovering:
                    signals["fetch_bubbles"] = 1
                elif dcache_busy_until > cycle:
                    signals["dcache_blocked"] = 1

            # ---------------- fetch -----------------------------------
            if icache_refill_until > cycle and not ibuf:
                signals["icache_blocked"] = 1

            fetched_any = False
            if (fetch_idx < total and cycle >= fetch_resume_at
                    and len(ibuf) < ibuf_capacity):
                fetched_any, fetch_resume_at, icache_refill_until = \
                    self._fetch(instructions, fetch_idx, cycle, ibuf,
                                ibuf_capacity, signals,
                                icache_refill_until)
                if fetched_any:
                    fetch_idx = ibuf[-1].inst.index + 1
            if recovering:
                if fetched_any:
                    recovering = False
                elif cycle >= recovering_from:
                    signals["recovering"] = 1

            # Raw handshake taps for the motivating example (Fig. 3).
            if ibuf:
                signals["ibuf_valid"] = 1
            if not issued_this_cycle and serialize_until <= cycle \
                    and dcache_busy_until <= cycle:
                signals["ibuf_ready"] = 1

            accumulator.add(signals)
            for observer in observers:
                observer.on_cycle(cycle, signals)
            cycle += 1

        check_run_completed(retired, total, cycle, max_cycles,
                            workload=trace.program_name)
        return CoreResult(
            workload=trace.program_name, config_name=self.config.name,
            core="rocket", cycles=cycle, instret=retired,
            events=accumulator.totals, lane_events=accumulator.lane_totals,
            commit_width=1, issue_width=1,
            l1i_stats=self.l1i.stats, l1d_stats=self.l1d.stats,
            l2_stats=self.memory.l2.stats,
            predictor_stats=self.predictor.stats)

    # ------------------------------------------------------------------
    # fast path: no per-cycle records, totals accumulated in place
    # ------------------------------------------------------------------

    def _run_fast(self, trace: DynamicTrace,
                  max_cycles: Optional[int]) -> CoreResult:
        """The traced loop with the per-cycle signal dictionary, the
        accumulator call, and the helper-method dispatch flattened away.

        The model itself is identical — ``tests/test_core_fastpath.py``
        pins both paths to bit-identical results over the whole suite.
        Signals that two pipeline stages may assert in the same cycle
        (``l2_tlb_miss``, ``recovering``) are deduplicated with per-cycle
        flags, exactly as the shared per-cycle dictionary did.
        """
        config = self.config
        total = len(trace)
        instructions = trace.instructions

        ibuf: Deque[_FetchedInst] = deque()
        ibuf_popleft = ibuf.popleft
        ibuf_append = ibuf.append
        ibuf_clear = ibuf.clear
        ibuf_capacity = config.ibuf_entries

        totals: Dict[str, int] = dict.fromkeys(_FAST_EVENT_NAMES, 0)

        fetch_idx = 0
        retired = 0
        cycle = 0
        safety_limit = total * _SAFETY_CYCLES_PER_INST + 10_000
        budget = safety_limit + 1 if max_cycles is None else max_cycles

        reg_ready = [0] * 64
        reg_producer = [""] * 64

        fetch_resume_at = 0
        icache_refill_until = 0
        recovering = False
        recovering_from = 0
        dcache_busy_until = 0
        div_busy_until = 0
        serialize_until = 0

        # Hot-loop local bindings (attribute lookups hoisted).
        l1i = self.l1i
        l1i_access = l1i.access
        # Block compare via the config-derived shift instead of two
        # ``block_address`` calls per fetched instruction.
        block_shift = l1i.config.block_bytes.bit_length() - 1
        l1d_access = self.l1d.access
        tlbs = self.tlbs
        # The TlbHierarchy._access chain is flattened: L1 TLB probe,
        # then L2 probe on a miss (hit: short refill, miss: full walk).
        itlb_probe = tlbs.itlb.access
        dtlb_probe = tlbs.dtlb.access
        l2tlb_probe = tlbs.l2.access
        predictor = self.predictor
        predict_branch = predictor.predict_branch
        resolve_branch = predictor.resolve_branch
        predict_indirect = predictor.predict_indirect
        resolve_indirect = predictor.resolve_indirect
        ras_push = predictor.ras.push
        fetch_width = config.fetch_width
        redirect_latency = config.redirect_latency
        class_signal = _CLASS_SIGNAL_FULL
        DIV = InstrClass.DIV
        MUL = InstrClass.MUL
        CSR = InstrClass.CSR
        FP = InstrClass.FP
        FP_DIV = InstrClass.FP_DIV
        JUMP = InstrClass.JUMP
        JUMP_REG = InstrClass.JUMP_REG

        while retired < total and cycle < safety_limit:
            if cycle >= budget:
                check_cycle_budget(cycle, max_cycles,
                                   workload=trace.program_name,
                                   retired=retired, total=total)
            issued_this_cycle = False
            l2_tlb_counted = False
            recovering_counted = False

            # ---------------- execute / retire ------------------------
            if ibuf:
                entry = ibuf[0]
                inst = entry.inst
                cls = inst.cls
                stall = False

                if serialize_until > cycle:
                    stall = True
                    totals["csr_interlock"] += 1
                if not stall and inst.is_mem and dcache_busy_until > cycle:
                    stall = True
                    totals["dcache_blocked"] += 1
                if not stall and cls is DIV and div_busy_until > cycle:
                    stall = True
                    totals["muldiv_interlock"] += 1
                if not stall:
                    for src in inst.srcs:
                        if reg_ready[src] > cycle:
                            stall = True
                            producer = reg_producer[src]
                            if producer == "load":
                                if reg_ready[src] - cycle > 4:
                                    totals["dcache_blocked"] += 1
                                    totals["long_latency_interlock"] += 1
                                else:
                                    totals["load_use_interlock"] += 1
                            elif producer in ("mul", "div"):
                                totals["muldiv_interlock"] += 1
                            else:
                                totals["long_latency_interlock"] += 1
                            break

                if not stall:
                    ibuf_popleft()
                    issued_this_cycle = True
                    retired += 1
                    totals[class_signal[cls]] += 1

                    # ---- inlined _execute ----------------------------
                    dcache_refill_until = 0
                    redirect = None
                    dest = inst.dest
                    if inst.is_mem:
                        if dtlb_probe(inst.mem_addr):
                            tlb_extra = 0
                        else:
                            totals["dtlb_miss"] += 1
                            if l2tlb_probe(inst.mem_addr):
                                tlb_extra = L2_TLB_HIT_LATENCY
                            else:
                                tlb_extra = PTW_LATENCY
                                totals["l2_tlb_miss"] += 1
                                l2_tlb_counted = True
                        hit, latency = l1d_access(inst.mem_addr,
                                                  inst.is_store, cycle)
                        latency += tlb_extra
                        if not hit:
                            totals["dcache_miss"] += 1
                            dcache_refill_until = cycle + latency
                        if dest >= 0:
                            reg_ready[dest] = cycle + latency
                            reg_producer[dest] = "load"
                    elif cls is MUL:
                        if dest >= 0:
                            reg_ready[dest] = cycle + inst.latency
                            reg_producer[dest] = "mul"
                    elif cls is DIV:
                        if dest >= 0:
                            reg_ready[dest] = cycle + inst.latency
                            reg_producer[dest] = "div"
                    elif cls is FP or cls is FP_DIV:
                        if dest >= 0:
                            reg_ready[dest] = cycle + inst.latency
                            reg_producer[dest] = "fp"
                    elif inst.is_branch:
                        totals["branch_resolved"] += 1
                        prediction = entry.prediction
                        if resolve_branch(inst.pc, inst.taken,
                                          inst.next_pc, prediction):
                            if prediction is not None \
                                    and prediction.taken == inst.taken:
                                totals["cf_target_mispredict"] += 1
                            else:
                                totals["cobr_mispredict"] += 1
                            redirect = cycle + redirect_latency
                    elif cls is JUMP_REG:
                        if resolve_indirect(inst.pc, inst.next_pc,
                                            entry.indirect_prediction):
                            totals["cf_target_mispredict"] += 1
                            redirect = cycle + redirect_latency
                    elif dest >= 0:
                        reg_ready[dest] = cycle + inst.latency
                        reg_producer[dest] = "alu"
                    # ---- end inlined _execute ------------------------

                    if redirect is not None:
                        ibuf_clear()
                        fetch_idx = inst.index + 1
                        fetch_resume_at = redirect
                        recovering = True
                        recovering_from = cycle + 1
                    if cls is DIV:
                        div_busy_until = cycle + inst.latency
                    elif cls is CSR:
                        serialize_until = cycle + 2
                    elif inst.is_fence:
                        serialize_until = cycle + 3
                        if inst.mnemonic == "fence.i":
                            l1i.flush()
                    elif inst.is_mem:
                        dcache_busy_until = max(dcache_busy_until,
                                                dcache_refill_until)
            else:
                backend_ready = (serialize_until <= cycle
                                 and dcache_busy_until <= cycle)
                if recovering and cycle >= recovering_from:
                    totals["recovering"] += 1
                    recovering_counted = True
                elif backend_ready and not recovering:
                    totals["fetch_bubbles"] += 1
                elif dcache_busy_until > cycle:
                    totals["dcache_blocked"] += 1

            # ---------------- fetch -----------------------------------
            if icache_refill_until > cycle and not ibuf:
                totals["icache_blocked"] += 1

            fetched_any = False
            if (fetch_idx < total and cycle >= fetch_resume_at
                    and len(ibuf) < ibuf_capacity):
                # ---- inlined _fetch ----------------------------------
                pc = instructions[fetch_idx].pc
                if itlb_probe(pc):
                    tlb_extra = 0
                else:
                    totals["itlb_miss"] += 1
                    if l2tlb_probe(pc):
                        tlb_extra = L2_TLB_HIT_LATENCY
                    else:
                        tlb_extra = PTW_LATENCY
                        if not l2_tlb_counted:
                            totals["l2_tlb_miss"] += 1
                hit, latency = l1i_access(pc, False, cycle)
                latency += tlb_extra
                if not hit or tlb_extra:
                    if not hit:
                        totals["icache_miss"] += 1
                    # Frontend blocks until the refill/walk completes.
                    fetch_resume_at = cycle + latency
                    icache_refill_until = cycle + latency
                else:
                    block = pc >> block_shift
                    fetched = 0
                    idx = fetch_idx
                    prev_pc = None
                    resume_at = cycle + 1
                    while (idx < total and fetched < fetch_width
                           and len(ibuf) < ibuf_capacity):
                        inst = instructions[idx]
                        pc = inst.pc
                        if prev_pc is not None and pc != prev_pc + 4:
                            break
                        if pc >> block_shift != block:
                            break
                        prediction = None
                        indirect = None
                        if inst.is_branch:
                            prediction = predict_branch(pc)
                        elif inst.cls is JUMP:
                            if inst.dest == 1:
                                ras_push(pc + 4)
                        elif inst.cls is JUMP_REG:
                            is_return = (inst.dest < 0
                                         and inst.srcs == (1,))
                            indirect = predict_indirect(
                                pc, is_return=is_return)
                        ibuf_append(_FetchedInst(inst, prediction, indirect))
                        fetched += 1
                        prev_pc = pc
                        idx += 1
                        if inst.is_control_flow and inst.taken:
                            # Taken redirect from the fetch-data stage.
                            resume_at = cycle + 2
                            break
                    fetch_resume_at = resume_at
                    if fetched:
                        fetched_any = True
                        fetch_idx = idx
                # ---- end inlined _fetch ------------------------------
            if recovering:
                if fetched_any:
                    recovering = False
                elif cycle >= recovering_from and not recovering_counted:
                    totals["recovering"] += 1

            # Raw handshake taps for the motivating example (Fig. 3).
            if ibuf:
                totals["ibuf_valid"] += 1
            if not issued_this_cycle and serialize_until <= cycle \
                    and dcache_busy_until <= cycle:
                totals["ibuf_ready"] += 1

            cycle += 1

        check_run_completed(retired, total, cycle, max_cycles,
                            workload=trace.program_name)
        totals["cycles"] = cycle
        # Single-issue Rocket asserts instr_issued/instr_retired together
        # on exactly the retire cycles, so both equal the retire count —
        # batched here instead of two dict increments per issue cycle.
        totals["instr_issued"] = retired
        totals["instr_retired"] = retired
        events = {name: count for name, count in totals.items() if count}
        return CoreResult(
            workload=trace.program_name, config_name=self.config.name,
            core="rocket", cycles=cycle, instret=retired,
            events=events, lane_events={},
            commit_width=1, issue_width=1,
            l1i_stats=self.l1i.stats, l1d_stats=self.l1d.stats,
            l2_stats=self.memory.l2.stats,
            predictor_stats=self.predictor.stats)

    # ------------------------------------------------------------------
    # columnar engine: descriptor table + trace columns, no DynInst
    # ------------------------------------------------------------------

    def _run_columnar(self, trace: ColumnarTrace,
                      max_cycles: Optional[int]) -> CoreResult:
        """The fast loop re-expressed over trace columns.

        Identical pipeline model to :meth:`_run_fast`, but every static
        fact comes from the :class:`~repro.cores.descriptors
        .RocketOpTable` compiled once per trace, and every dynamic fact
        from the flat trace columns — no ``DynInst`` list is ever
        materialized.  Instruction-buffer entries are plain
        ``(dyn_index, static_index, prediction, indirect)`` tuples.
        Bit-identity with the object engine is pinned by
        ``tests/test_timing_engine.py``.
        """
        config = self.config
        total = len(trace)

        table: "RocketOpTable" = trace.timing_table(  # noqa: F821
            "rocket", build_rocket_table)
        d_pc = table.pc
        d_dest = table.dest
        d_srcs = table.srcs
        d_lat = table.latency
        d_signal = table.signal
        d_is_mem = table.is_mem
        d_is_store = table.is_store
        d_is_branch = table.is_branch
        d_is_fence = table.is_fence
        d_is_fence_i = table.is_fence_i
        d_is_div = table.is_div
        d_is_mul = table.is_mul
        d_is_csr = table.is_csr
        d_is_fp = table.is_fp
        d_is_jump = table.is_jump
        d_is_jump_reg = table.is_jump_reg
        d_is_call = table.is_call
        d_is_return = table.is_return
        d_is_cf = table.is_cf
        sidx = trace.sidx
        col_mem = trace.mem_addr
        col_next = trace.next_pc
        col_taken = trace.taken

        ibuf: Deque[tuple] = deque()
        ibuf_popleft = ibuf.popleft
        ibuf_append = ibuf.append
        ibuf_clear = ibuf.clear
        ibuf_capacity = config.ibuf_entries

        totals: Dict[str, int] = dict.fromkeys(_FAST_EVENT_NAMES, 0)

        fetch_idx = 0
        retired = 0
        cycle = 0
        safety_limit = total * _SAFETY_CYCLES_PER_INST + 10_000
        budget = safety_limit + 1 if max_cycles is None else max_cycles

        reg_ready = [0] * 64
        reg_producer = [""] * 64

        fetch_resume_at = 0
        icache_refill_until = 0
        recovering = False
        recovering_from = 0
        dcache_busy_until = 0
        div_busy_until = 0
        serialize_until = 0

        l1i = self.l1i
        l1i_access = l1i.access
        block_shift = l1i.config.block_bytes.bit_length() - 1
        l1d_access = self.l1d.access
        tlbs = self.tlbs
        itlb_probe = tlbs.itlb.access
        dtlb_probe = tlbs.dtlb.access
        l2tlb_probe = tlbs.l2.access
        predictor = self.predictor
        predict_branch = predictor.predict_branch
        resolve_branch = predictor.resolve_branch
        predict_indirect = predictor.predict_indirect
        resolve_indirect = predictor.resolve_indirect
        ras_push = predictor.ras.push
        fetch_width = config.fetch_width
        redirect_latency = config.redirect_latency

        while retired < total and cycle < safety_limit:
            if cycle >= budget:
                check_cycle_budget(cycle, max_cycles,
                                   workload=trace.program_name,
                                   retired=retired, total=total)
            issued_this_cycle = False
            l2_tlb_counted = False
            recovering_counted = False

            # ---------------- execute / retire ------------------------
            if ibuf:
                entry = ibuf[0]
                dyn = entry[0]
                s = entry[1]
                stall = False

                if serialize_until > cycle:
                    stall = True
                    totals["csr_interlock"] += 1
                if not stall and d_is_mem[s] and dcache_busy_until > cycle:
                    stall = True
                    totals["dcache_blocked"] += 1
                if not stall and d_is_div[s] and div_busy_until > cycle:
                    stall = True
                    totals["muldiv_interlock"] += 1
                if not stall:
                    for src in d_srcs[s]:
                        if reg_ready[src] > cycle:
                            stall = True
                            producer = reg_producer[src]
                            if producer == "load":
                                if reg_ready[src] - cycle > 4:
                                    totals["dcache_blocked"] += 1
                                    totals["long_latency_interlock"] += 1
                                else:
                                    totals["load_use_interlock"] += 1
                            elif producer in ("mul", "div"):
                                totals["muldiv_interlock"] += 1
                            else:
                                totals["long_latency_interlock"] += 1
                            break

                if not stall:
                    ibuf_popleft()
                    issued_this_cycle = True
                    retired += 1
                    totals[d_signal[s]] += 1

                    dcache_refill_until = 0
                    redirect = None
                    dest = d_dest[s]
                    if d_is_mem[s]:
                        mem_addr = col_mem[dyn]
                        if dtlb_probe(mem_addr):
                            tlb_extra = 0
                        else:
                            totals["dtlb_miss"] += 1
                            if l2tlb_probe(mem_addr):
                                tlb_extra = L2_TLB_HIT_LATENCY
                            else:
                                tlb_extra = PTW_LATENCY
                                totals["l2_tlb_miss"] += 1
                                l2_tlb_counted = True
                        hit, latency = l1d_access(mem_addr,
                                                  d_is_store[s], cycle)
                        latency += tlb_extra
                        if not hit:
                            totals["dcache_miss"] += 1
                            dcache_refill_until = cycle + latency
                        if dest >= 0:
                            reg_ready[dest] = cycle + latency
                            reg_producer[dest] = "load"
                    elif d_is_mul[s]:
                        if dest >= 0:
                            reg_ready[dest] = cycle + d_lat[s]
                            reg_producer[dest] = "mul"
                    elif d_is_div[s]:
                        if dest >= 0:
                            reg_ready[dest] = cycle + d_lat[s]
                            reg_producer[dest] = "div"
                    elif d_is_fp[s]:
                        if dest >= 0:
                            reg_ready[dest] = cycle + d_lat[s]
                            reg_producer[dest] = "fp"
                    elif d_is_branch[s]:
                        totals["branch_resolved"] += 1
                        prediction = entry[2]
                        taken = col_taken[dyn]
                        if resolve_branch(d_pc[s], taken,
                                          col_next[dyn], prediction):
                            if prediction is not None \
                                    and prediction.taken == taken:
                                totals["cf_target_mispredict"] += 1
                            else:
                                totals["cobr_mispredict"] += 1
                            redirect = cycle + redirect_latency
                    elif d_is_jump_reg[s]:
                        if resolve_indirect(d_pc[s], col_next[dyn],
                                            entry[3]):
                            totals["cf_target_mispredict"] += 1
                            redirect = cycle + redirect_latency
                    elif dest >= 0:
                        reg_ready[dest] = cycle + d_lat[s]
                        reg_producer[dest] = "alu"

                    if redirect is not None:
                        ibuf_clear()
                        fetch_idx = dyn + 1
                        fetch_resume_at = redirect
                        recovering = True
                        recovering_from = cycle + 1
                    if d_is_div[s]:
                        div_busy_until = cycle + d_lat[s]
                    elif d_is_csr[s]:
                        serialize_until = cycle + 2
                    elif d_is_fence[s]:
                        serialize_until = cycle + 3
                        if d_is_fence_i[s]:
                            l1i.flush()
                    elif d_is_mem[s]:
                        dcache_busy_until = max(dcache_busy_until,
                                                dcache_refill_until)
            else:
                backend_ready = (serialize_until <= cycle
                                 and dcache_busy_until <= cycle)
                if recovering and cycle >= recovering_from:
                    totals["recovering"] += 1
                    recovering_counted = True
                elif backend_ready and not recovering:
                    totals["fetch_bubbles"] += 1
                elif dcache_busy_until > cycle:
                    totals["dcache_blocked"] += 1

            # ---------------- fetch -----------------------------------
            if icache_refill_until > cycle and not ibuf:
                totals["icache_blocked"] += 1

            fetched_any = False
            if (fetch_idx < total and cycle >= fetch_resume_at
                    and len(ibuf) < ibuf_capacity):
                pc = d_pc[sidx[fetch_idx]]
                if itlb_probe(pc):
                    tlb_extra = 0
                else:
                    totals["itlb_miss"] += 1
                    if l2tlb_probe(pc):
                        tlb_extra = L2_TLB_HIT_LATENCY
                    else:
                        tlb_extra = PTW_LATENCY
                        if not l2_tlb_counted:
                            totals["l2_tlb_miss"] += 1
                hit, latency = l1i_access(pc, False, cycle)
                latency += tlb_extra
                if not hit or tlb_extra:
                    if not hit:
                        totals["icache_miss"] += 1
                    fetch_resume_at = cycle + latency
                    icache_refill_until = cycle + latency
                else:
                    block = pc >> block_shift
                    fetched = 0
                    idx = fetch_idx
                    prev_pc = None
                    resume_at = cycle + 1
                    while (idx < total and fetched < fetch_width
                           and len(ibuf) < ibuf_capacity):
                        s = sidx[idx]
                        pc = d_pc[s]
                        if prev_pc is not None and pc != prev_pc + 4:
                            break
                        if pc >> block_shift != block:
                            break
                        prediction = None
                        indirect = None
                        if d_is_branch[s]:
                            prediction = predict_branch(pc)
                        elif d_is_jump[s]:
                            if d_is_call[s]:
                                ras_push(pc + 4)
                        elif d_is_jump_reg[s]:
                            indirect = predict_indirect(
                                pc, is_return=d_is_return[s])
                        ibuf_append((idx, s, prediction, indirect))
                        fetched += 1
                        prev_pc = pc
                        if d_is_cf[s] and col_taken[idx]:
                            idx += 1
                            resume_at = cycle + 2
                            break
                        idx += 1
                    fetch_resume_at = resume_at
                    if fetched:
                        fetched_any = True
                        fetch_idx = idx
            if recovering:
                if fetched_any:
                    recovering = False
                elif cycle >= recovering_from and not recovering_counted:
                    totals["recovering"] += 1

            # Raw handshake taps for the motivating example (Fig. 3).
            if ibuf:
                totals["ibuf_valid"] += 1
            if not issued_this_cycle and serialize_until <= cycle \
                    and dcache_busy_until <= cycle:
                totals["ibuf_ready"] += 1

            cycle += 1

        check_run_completed(retired, total, cycle, max_cycles,
                            workload=trace.program_name)
        totals["cycles"] = cycle
        totals["instr_issued"] = retired
        totals["instr_retired"] = retired
        events = {name: count for name, count in totals.items() if count}
        return CoreResult(
            workload=trace.program_name, config_name=self.config.name,
            core="rocket", cycles=cycle, instret=retired,
            events=events, lane_events={},
            commit_width=1, issue_width=1,
            l1i_stats=self.l1i.stats, l1d_stats=self.l1d.stats,
            l2_stats=self.memory.l2.stats,
            predictor_stats=self.predictor.stats)

    # ------------------------------------------------------------------

    def _execute(self, inst: DynInst, entry: _FetchedInst, cycle: int,
                 signals: Dict[str, int], reg_ready: List[int],
                 reg_producer: List[str]
                 ) -> Tuple[Optional[int], int]:
        """Execute one instruction.

        Returns ``(redirect_cycle, dcache_refill_until)``: the former is
        set on a control-flow mispredict, the latter is non-zero while a
        blocking D$ refill started by this instruction is in flight.
        """
        dcache_refill_until = 0
        redirect: Optional[int] = None

        if inst.is_mem:
            hit_tlb, tlb_extra = self.tlbs.access_data(inst.mem_addr)
            if not hit_tlb:
                signals["dtlb_miss"] = 1
                if tlb_extra > 10:
                    signals["l2_tlb_miss"] = 1
            hit, latency = self.l1d.access(inst.mem_addr,
                                           is_store=inst.is_store,
                                           cycle=cycle)
            latency += tlb_extra
            if not hit:
                signals["dcache_miss"] = 1
                dcache_refill_until = cycle + latency
            if inst.dest >= 0:
                reg_ready[inst.dest] = cycle + latency
                reg_producer[inst.dest] = "load"
        elif inst.cls == InstrClass.MUL:
            if inst.dest >= 0:
                reg_ready[inst.dest] = cycle + inst.latency
                reg_producer[inst.dest] = "mul"
        elif inst.cls == InstrClass.DIV:
            if inst.dest >= 0:
                reg_ready[inst.dest] = cycle + inst.latency
                reg_producer[inst.dest] = "div"
        elif inst.cls in (InstrClass.FP, InstrClass.FP_DIV):
            if inst.dest >= 0:
                reg_ready[inst.dest] = cycle + inst.latency
                reg_producer[inst.dest] = "fp"
        elif inst.is_branch:
            signals["branch_resolved"] = 1
            prediction = entry.prediction
            mispredicted = self.predictor.resolve_branch(
                inst.pc, inst.taken, inst.next_pc, prediction)
            if mispredicted:
                if prediction is not None and prediction.taken == inst.taken:
                    signals["cf_target_mispredict"] = 1
                else:
                    signals["cobr_mispredict"] = 1
                redirect = cycle + self.config.redirect_latency
        elif inst.cls == InstrClass.JUMP_REG:
            mispredicted = self.predictor.resolve_indirect(
                inst.pc, inst.next_pc, entry.indirect_prediction)
            if mispredicted:
                signals["cf_target_mispredict"] = 1
                redirect = cycle + self.config.redirect_latency
        elif inst.dest >= 0:
            reg_ready[inst.dest] = cycle + inst.latency
            reg_producer[inst.dest] = "alu"
        return redirect, dcache_refill_until

    # ------------------------------------------------------------------

    def _fetch(self, instructions: List[DynInst], fetch_idx: int, cycle: int,
               ibuf: Deque[_FetchedInst], capacity: int,
               signals: Dict[str, int],
               icache_refill_until: int) -> Tuple[bool, int, int]:
        """Fetch one packet (up to fetch_width sequential instructions).

        A predicted-taken control-flow instruction ends the packet *and*
        costs one dead fetch cycle: Rocket's BTB redirects from the
        fetch-data stage, killing the in-flight sequential fetch.  This
        is the source of the warm-I$ fetch bubbles the motivating
        example highlights (§III, Fig. 3b).
        """
        first = instructions[fetch_idx]
        pc = first.pc

        tlb_hit, tlb_extra = self.tlbs.access_instruction(pc)
        if not tlb_hit:
            signals["itlb_miss"] = 1
            if tlb_extra > 10:
                signals["l2_tlb_miss"] = 1
        hit, latency = self.l1i.access(pc, cycle=cycle)
        latency += tlb_extra
        if not hit or tlb_extra:
            if not hit:
                signals["icache_miss"] = 1
            # Frontend blocks until the refill/walk completes.
            return False, cycle + latency, cycle + latency

        total = len(instructions)
        block = self.l1i.block_address(pc)
        fetched = 0
        idx = fetch_idx
        prev_pc = None
        resume_at = cycle + 1
        while (idx < total and fetched < self.config.fetch_width
               and len(ibuf) < capacity):
            inst = instructions[idx]
            if prev_pc is not None and inst.pc != prev_pc + 4:
                break  # discontinuity: redirected packet starts next cycle
            if self.l1i.block_address(inst.pc) != block:
                break  # next cache block, next cycle
            prediction: Optional[Prediction] = None
            indirect: Optional[int] = None
            if inst.is_branch:
                prediction = self.predictor.predict_branch(inst.pc)
            elif inst.cls == InstrClass.JUMP:
                if inst.dest == 1:  # call: remember the return address
                    self.predictor.ras.push(inst.pc + 4)
            elif inst.cls == InstrClass.JUMP_REG:
                is_return = (inst.dest < 0 and inst.srcs == (1,))
                indirect = self.predictor.predict_indirect(
                    inst.pc, is_return=is_return)
            ibuf.append(_FetchedInst(inst, prediction, indirect))
            fetched += 1
            prev_pc = inst.pc
            idx += 1
            if inst.is_control_flow and inst.taken:
                # Taken redirect from the fetch-data stage: the packet
                # ends and the next fetch loses one cycle.
                resume_at = cycle + 2
                break
        return fetched > 0, resume_at, icache_refill_until
