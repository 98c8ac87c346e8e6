"""PUM serialisation: dict/JSON round-trip.

Lets platform descriptions live in version-controlled JSON files, like the
graphical platform capture of the paper's ESE front-end would emit.
"""

from __future__ import annotations

import hashlib
import json

from .model import (
    BranchModel,
    CachePoint,
    ExecutionModel,
    FunctionalUnit,
    MemoryModel,
    OpMapping,
    Pipeline,
    PUM,
    PUMError,
)


class PUMFormatError(PUMError):
    """A PUM file / dict could not be parsed.

    Carries the offending field (dotted path into the document) and, when
    the document came from disk, the file path — so a bad hand-edited JSON
    produces one actionable line instead of a raw ``KeyError`` traceback.
    """

    def __init__(self, message, field=None, path=None):
        self.message = message
        self.field = field
        self.path = path
        parts = []
        if path is not None:
            parts.append("%s: " % path)
        parts.append(message)
        if field is not None:
            parts.append(" (at %r)" % field)
        super().__init__("".join(parts))


def _require(mapping, key, where):
    if not isinstance(mapping, dict):
        raise PUMFormatError(
            "expected an object, got %s" % type(mapping).__name__,
            field=where,
        )
    if key not in mapping:
        raise PUMFormatError(
            "missing required field %r" % key,
            field="%s.%s" % (where, key) if where else key,
        )
    return mapping[key]


def pum_to_dict(pum):
    """Serialise a PUM into plain dicts/lists (JSON-compatible)."""
    data = {
        "name": pum.name,
        "frequency_mhz": pum.frequency_mhz,
        "execution": {
            "policy": pum.execution.policy,
            "op_mappings": {
                opclass: {
                    "demand": m.demand_stage,
                    "commit": m.commit_stage,
                    "usage": {
                        str(stage): list(fu) for stage, fu in m.usage.items()
                    },
                }
                for opclass, m in pum.execution.op_mappings.items()
            },
        },
        "units": [
            {
                "uid": u.uid,
                "kind": u.kind,
                "quantity": u.quantity,
                "modes": dict(u.modes),
            }
            for u in pum.units
        ],
        "pipelines": [
            {"name": p.name, "stages": list(p.stages), "width": p.width}
            for p in pum.pipelines
        ],
        "icache_size": pum.icache_size,
        "dcache_size": pum.dcache_size,
    }
    if pum.branch is not None:
        data["branch"] = {
            "policy": pum.branch.policy,
            "penalty": pum.branch.penalty,
            "miss_rate": pum.branch.miss_rate,
        }
    if pum.memory is not None:
        data["memory"] = {
            "ext_latency": pum.memory.ext_latency,
            "icache": {
                str(size): [pt.hit_rate, pt.hit_delay]
                for size, pt in pum.memory.icache.items()
            },
            "dcache": {
                str(size): [pt.hit_rate, pt.hit_delay]
                for size, pt in pum.memory.dcache.items()
            },
        }
    return data


def pum_from_dict(data):
    """Reconstruct a PUM from :func:`pum_to_dict` output.

    Raises:
        PUMFormatError: when a required field is missing or has the wrong
            shape; the error names the offending dotted field path.
    """
    exec_data = _require(data, "execution", "")
    mappings = {}
    raw_mappings = _require(exec_data, "op_mappings", "execution")
    if not isinstance(raw_mappings, dict):
        raise PUMFormatError(
            "expected an object, got %s" % type(raw_mappings).__name__,
            field="execution.op_mappings",
        )
    for opclass, m in raw_mappings.items():
        where = "execution.op_mappings.%s" % opclass
        raw_usage = _require(m, "usage", where)
        try:
            usage = {int(stage): tuple(fu) for stage, fu in raw_usage.items()}
        except (AttributeError, TypeError, ValueError):
            raise PUMFormatError(
                "malformed stage-usage table", field="%s.usage" % where
            ) from None
        mappings[opclass] = OpMapping(
            _require(m, "demand", where), _require(m, "commit", where), usage
        )
    execution = ExecutionModel(_require(exec_data, "policy", "execution"),
                               mappings)
    units = [
        FunctionalUnit(
            _require(u, "uid", "units[%d]" % i),
            _require(u, "kind", "units[%d]" % i),
            _require(u, "quantity", "units[%d]" % i),
            _require(u, "modes", "units[%d]" % i),
        )
        for i, u in enumerate(_require(data, "units", ""))
    ]
    pipelines = [
        Pipeline(
            _require(p, "name", "pipelines[%d]" % i),
            _require(p, "stages", "pipelines[%d]" % i),
            _require(p, "width", "pipelines[%d]" % i),
        )
        for i, p in enumerate(_require(data, "pipelines", ""))
    ]
    branch = None
    if "branch" in data:
        b = data["branch"]
        branch = BranchModel(
            _require(b, "policy", "branch"),
            _require(b, "penalty", "branch"),
            _require(b, "miss_rate", "branch"),
        )
    memory = None
    if "memory" in data:
        m = data["memory"]
        try:
            memory = MemoryModel(
                {int(s): CachePoint(*pt)
                 for s, pt in _require(m, "icache", "memory").items()},
                {int(s): CachePoint(*pt)
                 for s, pt in _require(m, "dcache", "memory").items()},
                _require(m, "ext_latency", "memory"),
            )
        except (AttributeError, TypeError, ValueError):
            raise PUMFormatError(
                "malformed cache point table", field="memory"
            ) from None
    return PUM(
        _require(data, "name", ""),
        execution,
        units,
        pipelines,
        branch=branch,
        memory=memory,
        icache_size=data.get("icache_size", 0),
        dcache_size=data.get("dcache_size", 0),
        frequency_mhz=data.get("frequency_mhz", 100.0),
    )


def pum_fingerprint(pum):
    """Stable digest of the PUM's execution/datapath/branch/memory model.

    The configured I/D cache *sizes* are excluded: Algorithm 1 never reads
    them (cache effects enter only through Algorithm 2's statistical terms),
    so one fingerprint covers every cache configuration of the same PE and a
    schedule computed at 8k/4k can be reused at 2k/2k.  The PE clock is
    excluded too: Algorithms 1 and 2 never read it (all delays are cycle
    counts; frequency only scales a cycle's duration inside the simulation
    kernel), so one schedule and one delay vector cover every clock.  Any
    change to the PUM's name, scheduling policy, operation mapping table,
    functional units, pipelines, or the statistical branch/memory models
    changes the fingerprint and therefore invalidates cached schedules
    (see docs/performance.md).

    Computed once per PUM and cached on it (a PUM is immutable);
    :meth:`~repro.pum.model.PUM.with_frequency` and
    :meth:`~repro.pum.model.PUM.with_caches` copies share the cache, so
    one computation serves a parent and all its copies.
    """
    cell = pum._fingerprint
    if cell[0] is None:
        data = pum_to_dict(pum)
        for field in ("frequency_mhz", "icache_size", "dcache_size"):
            del data[field]
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        cell[0] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]
    return cell[0]


def pum_to_json(pum, indent=2):
    return json.dumps(pum_to_dict(pum), indent=indent, sort_keys=True)


def pum_from_json(text):
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise PUMFormatError("invalid JSON: %s" % exc) from exc
    return pum_from_dict(data)


def save_pum(pum, path):
    with open(path, "w") as handle:
        handle.write(pum_to_json(pum))


def load_pum(path):
    """Load a PUM from a JSON file.

    Raises:
        PUMFormatError: on unreadable files, invalid JSON, or a document
            missing required fields — always naming ``path``.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise PUMFormatError("cannot read PUM file: %s" % exc,
                             path=str(path)) from exc
    try:
        return pum_from_json(text)
    except PUMFormatError as exc:
        raise PUMFormatError(exc.message, field=exc.field,
                             path=str(path)) from exc
