"""Phase 2 of simsem: cross-module checks over the per-file summaries.

Given the summaries (freshly extracted or replayed from the cache), this
module builds the whole-program tables — symbol definitions, module
constants, the effective sink set (checked-in registry + alias
annotations + derived passthrough sinks) — and emits:

* **SIM011** unit-sink-mismatch: a value whose dimension is known (or a
  raw literal that travelled through assignments) reaches a parameter
  declared with a different dimension;
* **SIM012 / SIM013**: locally decided during phase 1, replayed from
  the summaries here so a warm cache still reports them;
* **SIM014** hook-conformance: ``observer.on_x(...)`` calls vs. ``on_*``
  methods defined by observers in ``repro.validate`` / ``repro.obs`` —
  both directions (undefined hook fired, defined hook never fired);
* **SIM015** dead-event-handler: handler-named defs no identifier in
  the whole analyzed tree references.

SIM014 and SIM015 are whole-program properties: they only run when the
analyzed set actually contains observer modules (for SIM014), and their
precision degrades gracefully — an identifier referenced *anywhere*
clears SIM015 — so partial trees under- rather than over-report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.core import Finding, Severity, iter_python_files
from repro.lint.rules.numerics import UNIT_KWARGS
from repro.lint.sem.cache import SummaryCache, summary_key
from repro.lint.sem.info import SEM_RULE_INFOS
from repro.lint.sem.registry import SinkRegistry
from repro.lint.sem.summary import build_summary

_SEVERITIES: Dict[str, Severity] = {
    info.code: info.severity for info in SEM_RULE_INFOS
}

#: Module prefixes whose classes play the observer role (SIM014): every
#: engine tap implementer (see repro.sim.taps) plus the validator's
#: per-object observers.
OBSERVER_MODULE_PREFIXES = (
    "repro.validate",
    "repro.obs",
    "repro.lint.race",
    "repro.lint.perf",
    "repro.sim.taps",
)

_DERIVATION_ROUNDS = 8  # sink-passthrough fixpoint bound (call depth)


@dataclass
class SemStats:
    """Bookkeeping for one analysis run (cache efficiency, volume)."""

    files: int = 0
    computed: int = 0
    cached: int = 0
    findings: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "files": self.files,
            "computed": self.computed,
            "cached": self.cached,
            "findings": self.findings,
        }


@dataclass
class _Program:
    """The whole-program tables phase 2 checks against."""

    summaries: List[Dict[str, Any]] = field(default_factory=list)
    #: dotted function qname -> (summary, function record)
    functions: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] = field(
        default_factory=dict
    )
    #: dotted class name -> summary defining it
    classes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: dotted constant name -> abstract value
    constants: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    refs: Set[str] = field(default_factory=set)


def _is_observer_module(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in OBSERVER_MODULE_PREFIXES
    )


class _EffectiveSinks:
    """Declared sinks (registry + annotations) plus derived passthroughs."""

    def __init__(self, declared: SinkRegistry) -> None:
        self._declared = declared
        self._derived: Dict[Tuple[str, str], str] = {}
        self._ambiguous: Set[Tuple[str, str]] = set()

    def dimension(self, qname: str, param: str) -> Optional[str]:
        declared = self._declared.by_qname(qname).get(param)
        if declared is not None:
            return declared
        return self._derived.get((qname, param))

    def params_for_qname(self, qname: str) -> Dict[str, str]:
        params = dict(self._declared.by_qname(qname))
        for (derived_qname, param), dimension in self._derived.items():
            if derived_qname == qname and param not in params:
                params[param] = dimension
        return params

    def candidates_by_name(self, name: str) -> List[Tuple[str, Dict[str, str]]]:
        """Every sink a bare callable name could refer to (declared and
        derived), for attribute calls with unknown receiver type."""
        merged: Dict[str, Dict[str, str]] = {
            qname: dict(params)
            for qname, params in self._declared.by_callable_name(name)
        }
        for (qname, param), dimension in sorted(self._derived.items()):
            parts = qname.split(".")
            callable_name = parts[-1]
            if callable_name == "__init__" and len(parts) >= 2:
                callable_name = parts[-2]
            if callable_name == name:
                merged.setdefault(qname, {}).setdefault(param, dimension)
        return sorted(merged.items())

    def derive(self, qname: str, param: str, dimension: str) -> bool:
        """Record a passthrough sink; returns True if anything changed."""
        key = (qname, param)
        if key in self._ambiguous:
            return False
        if self._declared.by_qname(qname).get(param) is not None:
            return False
        existing = self._derived.get(key)
        if existing is None:
            self._derived[key] = dimension
            return True
        if existing != dimension:
            del self._derived[key]
            self._ambiguous.add(key)
            return True
        return False


class ProjectAnalyzer:
    """Two-phase cross-module analyzer (simsem's entry point)."""

    def __init__(
        self,
        registry: Optional[SinkRegistry] = None,
        cache: Optional[SummaryCache] = None,
        race: bool = False,
        perf: bool = False,
        telemetry: Optional[Path] = None,
        hotpaths: Optional[Any] = None,
    ) -> None:
        self.registry = registry if registry is not None else SinkRegistry.load()
        self.cache = cache
        #: Also run the simrace join checks (SIM016–SIM018) over the same
        #: summaries.  Phase 1 is shared either way: the v3 summaries
        #: always carry the race facts, so enabling this costs only the
        #: extra join work.
        self.race = race
        #: Also run the simperf join checks (SIM019–SIM023); the v4
        #: summaries always carry the cost records, same deal as race.
        self.perf = perf
        #: Recorded ``repro.obs`` telemetry JSONL for the SIM022
        #: registry-drift check (``--from-telemetry``); only consulted
        #: when ``perf`` is on.
        self.telemetry = telemetry
        #: A :class:`~repro.lint.perf.hotpaths.HotPathRegistry` override
        #: for the perf join (fixture projects carry their own); ``None``
        #: means the checked-in ``hotpaths.toml``.
        self.hotpaths = hotpaths
        self.stats = SemStats()

    # -- phase 1 ----------------------------------------------------------

    def _summarize(self, path: str, source: str) -> Dict[str, Any]:
        self.stats.files += 1
        if self.cache is None:
            self.stats.computed += 1
            return build_summary(path, source)
        key = summary_key(source, self.registry.digest())
        cached = self.cache.get(key)
        # The summary stores its (possibly virtual) path; a file moved
        # byte-identically still needs its findings at the new path.
        if cached is not None and cached.get("path") == path.replace("\\", "/"):
            self.stats.cached += 1
            return cached
        self.stats.computed += 1
        summary = build_summary(path, source)
        self.cache.put(key, summary)
        return summary

    def analyze_paths(
        self, paths: Iterable["str | Path"]
    ) -> List[Finding]:
        sources: List[Tuple[str, str]] = []
        for path in iter_python_files(paths):
            sources.append((str(path), path.read_text(encoding="utf-8")))
        return self.analyze_sources(sources)

    def analyze_sources(
        self, items: Sequence[Tuple[str, str]]
    ) -> List[Finding]:
        """Analyze (path, source) pairs — the paths may be virtual (the
        fixture corpus builds mini-projects from ``# simlint-path:``
        headers)."""
        self.stats = SemStats()
        summaries = [
            self._summarize(path.replace("\\", "/"), source)
            for path, source in sorted(items)
        ]
        findings = self._check(summaries)
        self.stats.findings = len(findings)
        return findings

    # -- phase 2 ----------------------------------------------------------

    def _check(self, summaries: List[Dict[str, Any]]) -> List[Finding]:
        program = self._build_program(summaries)
        sinks = self._effective_sinks(program)
        findings: List[Finding] = []
        findings.extend(self._replay_local_findings(program))
        findings.extend(self._check_sinks(program, sinks))
        findings.extend(self._check_hooks(program))
        findings.extend(self._check_dead_handlers(program))
        if self.race:
            # Imported lazily: the race analyzer depends on this module's
            # summaries but sem-only runs should not pay for it.
            from repro.lint.race.analyzer import check_races

            findings.extend(check_races(program.summaries))
        if self.perf:
            # Same lazy-import contract as the race join above.
            from repro.lint.perf.analyzer import check_perf

            findings.extend(
                check_perf(
                    program.summaries,
                    registry=self.hotpaths,
                    telemetry=self.telemetry,
                )
            )
        findings = self._apply_suppressions(program, findings)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return findings

    def _build_program(self, summaries: List[Dict[str, Any]]) -> _Program:
        program = _Program(summaries=summaries)
        for summary in summaries:
            module = str(summary["module"])
            for qname, record in summary.get("functions", {}).items():
                if qname != "<module>":
                    program.functions[f"{module}.{qname}"] = (summary, record)
            for class_name in summary.get("classes", {}):
                program.classes[f"{module}.{class_name}"] = summary
            for name, value in summary.get("module_constants", {}).items():
                program.constants[f"{module}.{name}"] = value
            program.refs.update(summary.get("refs", []))
        return program

    def _effective_sinks(self, program: _Program) -> _EffectiveSinks:
        declared = SinkRegistry()
        declared.merge(self.registry)
        for qname, (summary, record) in program.functions.items():
            for param, dimension in record.get("param_dims", {}).items():
                declared.add(qname, param, dimension)
        sinks = _EffectiveSinks(declared)
        # Passthrough fixpoint: a pristine parameter handed to a sink
        # makes the enclosing function's parameter a sink of the same
        # dimension, one call layer at a time.
        for _ in range(_DERIVATION_ROUNDS):
            changed = False
            for caller_qname, (summary, record) in program.functions.items():
                for call in record.get("calls", []):
                    _qname, sink_args = self._sink_arguments(
                        program, sinks, summary, call
                    )
                    for param, dimension, value, _loc in sink_args:
                        if value.get("k") == "param":
                            changed = (
                                sinks.derive(
                                    caller_qname, str(value["name"]), dimension
                                )
                                or changed
                            )
            if not changed:
                break
        return sinks

    # -- sink resolution ---------------------------------------------------

    def _resolve_callee(
        self, program: _Program, summary: Dict[str, Any], call: Dict[str, Any]
    ) -> Tuple[Optional[str], Optional[Dict[str, Any]], bool]:
        """(sink qname, function record, receiver_bound) for a call.

        ``receiver_bound`` means the first parameter (self) is not part
        of the positional argument list at the call site.
        """
        callee = call.get("callee") or {}
        kind = callee.get("kind")
        name = str(callee.get("name", ""))
        if kind == "local":
            name = f'{summary["module"]}.{name}'
            kind = "dotted"
        if kind == "dotted":
            if name in program.classes or f"{name}.__init__" in program.functions:
                init_qname = f"{name}.__init__"
                record = program.functions.get(init_qname)
                return init_qname, record[1] if record else None, True
            record = program.functions.get(name)
            if record is not None:
                return name, record[1], bool(record[1].get("is_method"))
            # Not in the analyzed tree; the registry may still know it
            # (e.g. repro.sim.units helpers when analyzing a subtree).
            return name, None, name.split(".")[-1] == "__init__"
        return None, None, True

    def _attr_candidates(
        self,
        program: _Program,
        sinks: _EffectiveSinks,
        name: str,
    ) -> Optional[Tuple[str, Dict[str, str], Optional[Dict[str, Any]]]]:
        """The unambiguous sink an attribute call ``x.name(...)`` hits.

        All candidates must agree on the parameter dimensions (and on
        positions, when function records exist); otherwise the call is
        skipped — unknown receivers never guess.
        """
        candidates = sinks.candidates_by_name(name)
        if not candidates:
            return None
        first_params = candidates[0][1]
        if any(params != first_params for _, params in candidates[1:]):
            return None
        records = []
        for qname, _params in candidates:
            record = program.functions.get(qname)
            records.append(record[1] if record else None)
        concrete = [r for r in records if r is not None]
        positions = {tuple(r.get("params", [])) for r in concrete}
        if len(positions) > 1:
            return None
        return candidates[0][0], first_params, concrete[0] if concrete else None

    def _sink_arguments(
        self,
        program: _Program,
        sinks: _EffectiveSinks,
        summary: Dict[str, Any],
        call: Dict[str, Any],
    ) -> Tuple[
        Optional[str], List[Tuple[str, str, Dict[str, Any], Tuple[int, int]]]
    ]:
        """The resolved sink qname, plus (param, dimension, abstract
        value, location) per declared sink parameter receiving a value
        at this call."""
        callee = call.get("callee") or {}
        if callee.get("kind") == "attr":
            resolved = self._attr_candidates(
                program, sinks, str(callee.get("name", ""))
            )
            if resolved is None:
                return None, []
            qname, params_dims, record = resolved
            receiver_bound = True
        else:
            qname, record, receiver_bound = self._resolve_callee(
                program, summary, call
            )
            if qname is None:
                return None, []
            params_dims = sinks.params_for_qname(qname)
        if not params_dims:
            return qname, []
        args: List[Dict[str, Any]] = list(call.get("args", []))
        kwargs: Dict[str, Dict[str, Any]] = dict(call.get("kwargs", {}))
        arg_locs: List[List[int]] = list(call.get("arg_locs", []))
        kwarg_locs: Dict[str, List[int]] = dict(call.get("kwarg_locs", {}))
        call_loc = (int(call.get("line", 1)), int(call.get("col", 0)))
        results: List[Tuple[str, str, Dict[str, Any], Tuple[int, int]]] = []
        param_names: List[str] = list(record.get("params", [])) if record else []
        offset = 0
        if record and receiver_bound and param_names[:1] in (["self"], ["cls"]):
            offset = 1
        for param, dimension in sorted(params_dims.items()):
            value: Optional[Dict[str, Any]] = None
            loc = call_loc
            if param in kwargs:
                value = kwargs[param]
                raw_loc = kwarg_locs.get(param)
                if raw_loc:
                    loc = (int(raw_loc[0]), int(raw_loc[1]))
            elif record and param in param_names:
                index = param_names.index(param) - offset
                if 0 <= index < len(args):
                    value = args[index]
                    if index < len(arg_locs):
                        loc = (int(arg_locs[index][0]), int(arg_locs[index][1]))
            if value is not None:
                results.append((param, dimension, value, loc))
        return qname, results

    # -- SIM011 ------------------------------------------------------------

    def _sim004_covers(
        self, call: Dict[str, Any], param: str, value: Dict[str, Any]
    ) -> bool:
        """Whether simlint's SIM004 already reports this raw literal."""
        if value.get("via", 1) != 0:
            return False
        if param in UNIT_KWARGS and param in call.get("kwargs", {}):
            return True
        callee = call.get("callee") or {}
        if callee.get("kind") == "attr" and callee.get("name") == "connect":
            # Positional slots 2 and 3 of connect() are SIM004's.
            args = call.get("args", [])
            for index in (2, 3):
                if index < len(args) and args[index] is value:
                    return True
        return False

    def _check_sinks(
        self, program: _Program, sinks: _EffectiveSinks
    ) -> List[Finding]:
        findings: List[Finding] = []
        for caller_qname, (summary, record) in sorted(program.functions.items()):
            for call in record.get("calls", []):
                sink_qname, sink_args = self._sink_arguments(
                    program, sinks, summary, call
                )
                if sink_qname is None:
                    continue
                for param, dimension, value, loc in sink_args:
                    finding = self._judge_sink_value(
                        program, sinks, summary, caller_qname, call,
                        sink_qname, param, dimension, value, loc,
                    )
                    if finding is not None:
                        findings.append(finding)
        return findings

    def _judge_sink_value(
        self,
        program: _Program,
        sinks: _EffectiveSinks,
        summary: Dict[str, Any],
        caller_qname: str,
        call: Dict[str, Any],
        sink_qname: str,
        param: str,
        dimension: str,
        value: Dict[str, Any],
        loc: Tuple[int, int],
    ) -> Optional[Finding]:
        kind = value.get("k")
        if kind == "import":
            resolved = program.constants.get(str(value.get("name", "")))
            if resolved is None:
                return None
            value = dict(resolved)
            if value.get("k") == "raw":
                value["via"] = 1
            kind = value.get("k")
        message: Optional[str] = None
        if kind == "dim":
            actual = str(value["d"])
            if actual != dimension:
                message = (
                    f"{actual} value reaches parameter '{param}' of "
                    f"{sink_qname}, which is declared '{dimension}'"
                )
        elif kind == "raw":
            if value.get("zero"):
                return None
            if self._sim004_covers(call, param, value):
                return None
            origin = (
                "a raw numeric literal"
                if value.get("via", 1) == 0
                else "a raw numeric (assigned from a bare literal)"
            )
            message = (
                f"{origin} reaches parameter '{param}' of {sink_qname}, "
                f"declared '{dimension}'; wrap the value in a "
                "repro.sim.units constructor at its origin"
            )
        elif kind == "param":
            declared = sinks.dimension(caller_qname, str(value["name"]))
            if declared is not None and declared != dimension:
                message = (
                    f"parameter '{value['name']}' of {caller_qname} is "
                    f"'{declared}' but flows into parameter '{param}' of "
                    f"{sink_qname}, declared '{dimension}'"
                )
        if message is None:
            return None
        return Finding(
            path=str(summary["path"]),
            line=loc[0],
            col=loc[1],
            code="SIM011",
            message=message,
            severity=_SEVERITIES["SIM011"],
        )

    # -- SIM012/SIM013 replay ---------------------------------------------

    def _replay_local_findings(self, program: _Program) -> List[Finding]:
        findings: List[Finding] = []
        for summary in program.summaries:
            for code, line, col, message in summary.get("local_findings", []):
                findings.append(
                    Finding(
                        path=str(summary["path"]),
                        line=int(line),
                        col=int(col),
                        code=str(code),
                        message=str(message),
                        severity=_SEVERITIES.get(str(code), Severity.ERROR),
                    )
                )
        return findings

    # -- SIM014 ------------------------------------------------------------

    def _check_hooks(self, program: _Program) -> List[Finding]:
        observer_summaries = [
            s for s in program.summaries if _is_observer_module(str(s["module"]))
        ]
        if not observer_summaries:
            return []  # partial tree: the protocol side is not visible
        defined: Dict[str, List[Tuple[str, int, str]]] = {}
        for summary in observer_summaries:
            for hook in summary.get("hook_defs", []):
                defined.setdefault(str(hook["method"]), []).append(
                    (str(summary["path"]), int(hook["line"]), str(hook["class"]))
                )
        # A tap fires its own hooks from fire(): ``self.on_x(...)`` in an
        # observer module is a dispatch site too (Profiler.on_fire).
        fired: Set[str] = {
            str(call["callee"]["name"])
            for summary in observer_summaries
            for function in summary["functions"].values()
            for call in function["calls"]
            if call["callee"].get("self")
            and str(call["callee"]["name"]).startswith("on_")
        }
        findings: List[Finding] = []
        for summary in program.summaries:
            for hook in summary.get("hook_calls", []):
                method = str(hook["method"])
                fired.add(method)
                if method not in defined:
                    findings.append(
                        Finding(
                            path=str(summary["path"]),
                            line=int(hook["line"]),
                            col=int(hook["col"]),
                            code="SIM014",
                            message=(
                                f"{hook['receiver']}.{method}(...) matches no "
                                "on_* method on any observer or tap; the "
                                "event is silently dropped"
                            ),
                            severity=_SEVERITIES["SIM014"],
                        )
                    )
        for method in sorted(defined):
            if method in fired:
                continue
            for path, line, class_name in defined[method]:
                findings.append(
                    Finding(
                        path=path,
                        line=line,
                        col=0,
                        code="SIM014",
                        message=(
                            f"observer hook {class_name}.{method} is defined "
                            "but no instrumented site ever fires it; the "
                            "observation is dead protocol"
                        ),
                        severity=_SEVERITIES["SIM014"],
                    )
                )
        return findings

    # -- SIM015 ------------------------------------------------------------

    def _check_dead_handlers(self, program: _Program) -> List[Finding]:
        findings: List[Finding] = []
        for summary in program.summaries:
            is_observer = _is_observer_module(str(summary["module"]))
            for handler in summary.get("handler_defs", []):
                name = str(handler["name"])
                if name in program.refs:
                    continue
                if is_observer and name.startswith("on_"):
                    continue  # observer hooks are SIM014's domain
                findings.append(
                    Finding(
                        path=str(summary["path"]),
                        line=int(handler["line"]),
                        col=0,
                        code="SIM015",
                        message=(
                            f"event handler '{handler['qname']}' is never "
                            "referenced anywhere in the analyzed tree — "
                            "unreachable from any schedule() site"
                        ),
                        severity=_SEVERITIES["SIM015"],
                    )
                )
        return findings

    # -- suppressions -------------------------------------------------------

    def _apply_suppressions(
        self, program: _Program, findings: List[Finding]
    ) -> List[Finding]:
        by_path: Dict[str, Dict[str, List[str]]] = {
            str(s["path"]): s.get("suppressions", {}) for s in program.summaries
        }
        kept: List[Finding] = []
        for finding in findings:
            codes = by_path.get(finding.path, {}).get(str(finding.line))
            if codes and ("all" in codes or finding.code in codes):
                continue
            kept.append(finding)
        return kept


__all__ = ["OBSERVER_MODULE_PREFIXES", "ProjectAnalyzer", "SemStats"]
