"""Processing Unit Model (PUM) — the paper's Section 4.1.

A PUM characterises a processing element (PE) for the estimation engine:

1. **Execution model** — the operation-scheduling policy plus an *operation
   mapping table* that, for each operation class, records the pipeline stage
   where operands are demanded, the stage where the result commits, and a
   *usage table* naming the datapath unit (and mode) the operation occupies
   in each stage.
2. **Datapath model** — a set of functional units (id, type, quantity,
   operation modes with per-mode delays) and one or more pipelines
   (superscalar PEs have several).
3. **Branch delay model** — a statistical model: prediction policy, cycles
   lost per misprediction and average misprediction ratio.
4. **Memory model** — a statistical model: average i-/d-cache hit rates and
   access latencies for a set of cache sizes, plus external memory latency.

The same schema describes an embedded processor (Fig. 5: MicroBlaze) and a
custom hardware unit (Fig. 4: DCT — a non-pipelined datapath modelled as an
equivalent single-issue pipeline with one stage and no memory hierarchy).
"""

from __future__ import annotations

SCHEDULING_POLICIES = ("asap", "alap", "list")


from ..errors import InputError


class PUMError(InputError):
    """Raised for malformed PUM descriptions."""

    code = "pum"


class FunctionalUnit:
    """A datapath unit: id, type, quantity and per-mode delays.

    E.g. an ALU with ``modes={"add": 1, "mul": 3}`` offers addition in one
    cycle and multiplication in three; ``quantity`` limits how many
    operations may occupy units of this type in the same cycle.
    """

    __slots__ = ("uid", "kind", "quantity", "modes")

    def __init__(self, uid, kind, quantity, modes):
        if quantity < 1:
            raise PUMError("functional unit %r needs quantity >= 1" % uid)
        if not modes:
            raise PUMError("functional unit %r needs at least one mode" % uid)
        for mode, delay in modes.items():
            if delay < 1:
                raise PUMError(
                    "mode %r of unit %r needs delay >= 1" % (mode, uid)
                )
        self.uid = uid
        self.kind = kind
        self.quantity = quantity
        self.modes = dict(modes)

    def delay(self, mode):
        try:
            return self.modes[mode]
        except KeyError:
            raise PUMError(
                "unit %r has no mode %r (modes: %s)"
                % (self.uid, mode, sorted(self.modes))
            )

    def __repr__(self):
        return "FunctionalUnit(%r, %r, x%d)" % (self.uid, self.kind, self.quantity)


class Pipeline:
    """One pipeline of the PE.

    ``stages`` are stage names in order.  ``width`` limits how many
    operations each stage may hold simultaneously (``None`` = limited only by
    functional-unit quantities, which models a spatial custom-HW datapath).
    """

    __slots__ = ("name", "stages", "width")

    def __init__(self, name, stages, width=1):
        if not stages:
            raise PUMError("pipeline %r needs at least one stage" % name)
        if width is not None and width < 1:
            raise PUMError("pipeline %r needs width >= 1 or None" % name)
        self.name = name
        self.stages = list(stages)
        self.width = width

    @property
    def n_stages(self):
        return len(self.stages)

    def __repr__(self):
        return "Pipeline(%r, %s, width=%r)" % (self.name, self.stages, self.width)


class OpMapping:
    """Operation-mapping-table row for one operation class.

    Attributes:
        demand_stage: stage index where the operation needs its operands
            (the *demand operand* flag of the paper).
        commit_stage: stage index at whose completion the result is available
            to dependents (the *commit result* flag).
        usage: stage index → ``(fu_kind, mode)`` — the usage table.  The
            operation occupies one unit of ``fu_kind`` for the unit's mode
            delay in that stage; unlisted stages take one cycle and no unit.
    """

    __slots__ = ("demand_stage", "commit_stage", "usage")

    def __init__(self, demand_stage, commit_stage, usage=None):
        if commit_stage < demand_stage:
            raise PUMError("commit stage cannot precede demand stage")
        self.demand_stage = demand_stage
        self.commit_stage = commit_stage
        self.usage = dict(usage or {})

    def __repr__(self):
        return "OpMapping(demand=%d, commit=%d, usage=%r)" % (
            self.demand_stage,
            self.commit_stage,
            self.usage,
        )


class ExecutionModel:
    """Scheduling policy + operation mapping table."""

    __slots__ = ("policy", "op_mappings")

    def __init__(self, policy, op_mappings):
        if policy not in SCHEDULING_POLICIES:
            raise PUMError(
                "unknown scheduling policy %r (choose from %s)"
                % (policy, SCHEDULING_POLICIES)
            )
        self.policy = policy
        self.op_mappings = dict(op_mappings)

    def mapping_for(self, opclass):
        try:
            return self.op_mappings[opclass]
        except KeyError:
            raise PUMError("no operation mapping for class %r" % opclass)


class BranchModel:
    """Statistical branch-delay model.

    ``policy`` is descriptive (e.g. ``"static-not-taken"``, ``"2bit"``);
    ``penalty`` is the cycles lost per misprediction; ``miss_rate`` is the
    average misprediction ratio observed/calibrated for the PE.
    """

    __slots__ = ("policy", "penalty", "miss_rate")

    def __init__(self, policy, penalty, miss_rate):
        if penalty < 0:
            raise PUMError("branch penalty must be >= 0")
        if not 0.0 <= miss_rate <= 1.0:
            raise PUMError("branch miss rate must be in [0, 1]")
        self.policy = policy
        self.penalty = penalty
        self.miss_rate = miss_rate

    def expected_penalty(self):
        return self.miss_rate * self.penalty

    def __repr__(self):
        return "BranchModel(%r, penalty=%d, miss_rate=%.4f)" % (
            self.policy,
            self.penalty,
            self.miss_rate,
        )


class CachePoint:
    """Statistics for one cache size: average hit rate and hit latency."""

    __slots__ = ("hit_rate", "hit_delay")

    def __init__(self, hit_rate, hit_delay):
        if not 0.0 <= hit_rate <= 1.0:
            raise PUMError("hit rate must be in [0, 1]")
        if hit_delay < 0:
            raise PUMError("hit delay must be >= 0")
        self.hit_rate = hit_rate
        self.hit_delay = hit_delay

    def __repr__(self):
        return "CachePoint(hit_rate=%.4f, hit_delay=%d)" % (
            self.hit_rate,
            self.hit_delay,
        )


class MemoryModel:
    """Statistical memory-delay model.

    ``icache``/``dcache`` map cache size in bytes to :class:`CachePoint`;
    size 0 means "no cache" and every access pays ``ext_latency``.
    ``ext_latency`` is the external (miss) latency in cycles.
    """

    __slots__ = ("icache", "dcache", "ext_latency")

    def __init__(self, icache, dcache, ext_latency):
        if ext_latency < 0:
            raise PUMError("external latency must be >= 0")
        self.icache = dict(icache)
        self.dcache = dict(dcache)
        self.ext_latency = ext_latency

    def point(self, which, size):
        """Statistics for cache ``which`` (``"i"``/``"d"``) at ``size`` bytes.

        Size 0 returns a degenerate point: 0% hits, so Algorithm 2 charges
        the external latency on every access.
        """
        if size == 0:
            return CachePoint(0.0, 0)
        table = self.icache if which == "i" else self.dcache
        try:
            return table[size]
        except KeyError:
            raise PUMError(
                "no %s-cache statistics for size %d (have %s)"
                % (which, size, sorted(table))
            )

    def __repr__(self):
        return "MemoryModel(i=%r, d=%r, ext=%d)" % (
            sorted(self.icache),
            sorted(self.dcache),
            self.ext_latency,
        )


class PUM:
    """A complete processing unit model — an immutable value.

    Attributes:
        name: PE name (e.g. ``"MicroBlaze"``, ``"DCT-HW"``).
        execution: :class:`ExecutionModel`.
        units: list of :class:`FunctionalUnit`.
        pipelines: list of :class:`Pipeline` (several for superscalar PEs).
        branch: :class:`BranchModel` or ``None`` (non-pipelined PEs).
        memory: :class:`MemoryModel` or ``None`` (PEs without caches —
            custom HW with single-cycle SRAM).
        icache_size/dcache_size: the configured cache sizes in bytes
            (0 = no cache); only meaningful when ``memory`` is present.
        frequency_mhz: nominal clock, used to convert cycles to time.

    Assigning any attribute after construction raises :class:`PUMError`,
    so a PUM's fingerprint (:func:`repro.pum.pum_fingerprint`) is computed
    once and cached on it.  Derive variants with :meth:`with_frequency` and
    :meth:`with_caches`; the copies share the cached fingerprint, which
    covers neither the clock nor the cache sizes.
    """

    def __init__(
        self,
        name,
        execution,
        units,
        pipelines,
        branch=None,
        memory=None,
        icache_size=0,
        dcache_size=0,
        frequency_mhz=100.0,
    ):
        units = list(units)
        units_by_kind = {}
        for unit in units:
            if unit.kind in units_by_kind:
                raise PUMError("duplicate functional-unit kind %r" % unit.kind)
            units_by_kind[unit.kind] = unit
        vars(self).update(
            name=name,
            execution=execution,
            units=units,
            pipelines=list(pipelines),
            branch=branch,
            memory=memory,
            icache_size=icache_size,
            dcache_size=dcache_size,
            frequency_mhz=frequency_mhz,
            _units_by_kind=units_by_kind,
            # One-element cell for the cached fingerprint, shared with every
            # with_frequency()/with_caches() copy whichever computes it.
            _fingerprint=[None],
        )
        self._validate()

    def __setattr__(self, name, value):
        raise PUMError(
            "PUM %r is immutable (cannot set %r); derive a variant with "
            "with_frequency() or with_caches()" % (self.name, name)
        )

    def __delattr__(self, name):
        raise PUMError("PUM %r is immutable (cannot delete %r)"
                       % (self.name, name))

    def _validate(self):
        n_stages = max(p.n_stages for p in self.pipelines)
        for opclass, mapping in self.execution.op_mappings.items():
            if mapping.commit_stage >= n_stages:
                raise PUMError(
                    "op class %r commits at stage %d but the deepest pipeline "
                    "has %d stages" % (opclass, mapping.commit_stage, n_stages)
                )
            for stage, (fu_kind, mode) in mapping.usage.items():
                unit = self._units_by_kind.get(fu_kind)
                if unit is None:
                    raise PUMError(
                        "op class %r uses unknown unit kind %r" % (opclass, fu_kind)
                    )
                unit.delay(mode)  # validates the mode exists

    def unit(self, kind):
        try:
            return self._units_by_kind[kind]
        except KeyError:
            raise PUMError("no functional unit of kind %r" % kind)

    @property
    def is_pipelined(self):
        """True when any pipeline has more than one stage (Algorithm 2's
        "PE is pipelined" test for the branch-penalty term)."""
        return any(p.n_stages > 1 for p in self.pipelines)

    @property
    def has_icache(self):
        return self.memory is not None and self.icache_size >= 0

    @property
    def has_dcache(self):
        return self.memory is not None and self.dcache_size >= 0

    def _derive(self, **changes):
        """A copy with ``changes`` applied; the parent was validated, and
        the copy shares its fingerprint cell (neither the clock nor the
        cache sizes enter the fingerprint)."""
        clone = object.__new__(PUM)
        vars(clone).update(vars(self), **changes)
        return clone

    def with_caches(self, icache_size, dcache_size):
        """A copy of this PUM configured for different cache sizes."""
        return self._derive(icache_size=icache_size, dcache_size=dcache_size)

    def with_frequency(self, frequency_mhz):
        """A copy of this PUM clocked at ``frequency_mhz``."""
        return self._derive(frequency_mhz=frequency_mhz)

    def stage_latency(self, op, stage_idx):
        """Cycles ``op`` occupies pipeline stage ``stage_idx``."""
        mapping = self.execution.mapping_for(op.opclass)
        usage = mapping.usage.get(stage_idx)
        if usage is None:
            return 1
        fu_kind, mode = usage
        return self.unit(fu_kind).delay(mode)

    def service_latency(self, op):
        """Total busy cycles of ``op`` across all its stages (for critical-path
        priorities, not for the schedule itself)."""
        mapping = self.execution.mapping_for(op.opclass)
        total = 0
        for stage, (fu_kind, mode) in mapping.usage.items():
            total += self.unit(fu_kind).delay(mode)
        return max(total, 1)

    def __repr__(self):
        return "PUM(%r, %d units, %d pipeline(s), policy=%r)" % (
            self.name,
            len(self.units),
            len(self.pipelines),
            self.execution.policy,
        )
