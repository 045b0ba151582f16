"""The built-in rules: the repo's reproducibility contracts, as AST checks.

Each rule machine-checks one invariant the differential test suites
otherwise only catch after the fact:

* **RL001 no-global-rng** — randomness flows through
  :func:`repro.determinism.derive_rng` streams; module-level
  ``random.*`` calls and unseeded ``random.Random()`` constructions
  reintroduce hidden global state that campaign workers reorder.
* **RL002 wallclock-in-results** — result-producing code must not read
  the wall clock (``time.time``/``datetime.now``): records become
  run-dependent and the content-addressed store stops deduplicating.
  Monotonic timing (``time.perf_counter``/``time.monotonic``) for
  duration metadata is fine and not flagged.
* **RL003 unordered-iteration-to-canonical-output** — feeding a ``set``
  or dict-``.keys()`` view into ``json.dump(s)``, ``canonical_dumps``/
  ``canonical_body``, or a hash without ``sorted(...)`` makes "canonical"
  bytes depend on insertion order.
* **RL004 lock-discipline** — in the serve tier, shared-session
  mutating methods (the PR-5 thread-safety audit's list) must be called
  under ``with <...>.lock:``; anything else races the evaluator's LRU
  caches.
* **RL005 non-atomic-write** — store/bench/baseline writes must use the
  tmp + ``os.replace`` idiom (:mod:`repro.ioutil`); a torn ``open(path,
  "w")`` write leaves half-records that resume logic then trusts.
* **RL006 telemetry-in-canonical-output** — :mod:`repro.obs` telemetry
  is out-of-band by contract: a counter value or trace attribute flowing
  into ``canonical_body``/``canonical_dumps`` or a result-payload builder
  makes "canonical" bytes depend on how many times the process was
  exercised, breaking every differential bit-identity suite.

Heuristics err toward precision: each check matches the concrete idioms
this codebase uses, and genuinely intended exceptions are annotated with
``# repro-lint: disable=<rule>`` at the call site (see
:mod:`repro.analysis.suppress`).
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Sequence

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _receiver_name(node: ast.AST) -> Optional[str]:
    """The terminal identifier of a call receiver (``x`` in ``a.x.m()``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@register_rule
class NoGlobalRng(Rule):
    """RL001: all randomness must come from seeded, derived streams."""

    id = "RL001"
    name = "no-global-rng"
    contract = (
        "randomness flows through derive_rng(seed, stream) / seeded "
        "random.Random(seed) — never module-level random.* calls or "
        "unseeded random.Random(), whose hidden global state breaks "
        "campaign byte-identity"
    )

    def check(
        self, tree: ast.Module, lines: Sequence[str], path: str
    ) -> Iterable[Finding]:
        # `from random import <fn>` imports module-level state wholesale;
        # flag the import itself (Random, the seedable class, is fine).
        from_random: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [a.name for a in node.names if a.name != "Random"]
                if bad:
                    yield self.finding(
                        node,
                        "import of module-level random state "
                        f"({', '.join(bad)}): use derive_rng streams",
                        lines, path,
                    )
                from_random.update(
                    (a.asname or a.name) for a in node.names if a.name == "Random"
                )
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is not None and dotted.startswith("random."):
                attr = dotted[len("random."):]
                if attr == "Random":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            node,
                            "unseeded random.Random(): derive the default "
                            "from repro.determinism.default_rng(stream)",
                            lines, path,
                        )
                elif "." not in attr:
                    yield self.finding(
                        node,
                        f"module-level random.{attr}(): global RNG state is "
                        "shared across workers; use a derive_rng stream",
                        lines, path,
                    )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in from_random
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    node,
                    "unseeded Random(): derive the default from "
                    "repro.determinism.default_rng(stream)",
                    lines, path,
                )


_WALLCLOCK = {
    "time.time": "time.time()",
    "datetime.now": "datetime.now()",
    "datetime.utcnow": "datetime.utcnow()",
    "datetime.today": "datetime.today()",
    "date.today": "date.today()",
}


@register_rule
class WallclockInResults(Rule):
    """RL002: result-producing code must not read the wall clock."""

    id = "RL002"
    name = "wallclock-in-results"
    contract = (
        "results are pure functions of their config: wall-clock reads "
        "(time.time, datetime.now) make records run-dependent; use "
        "time.perf_counter/time.monotonic for duration metadata"
    )

    def check(
        self, tree: ast.Module, lines: Sequence[str], path: str
    ) -> Iterable[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            for suffix, label in _WALLCLOCK.items():
                if dotted == suffix or dotted.endswith("." + suffix):
                    yield self.finding(
                        node,
                        f"wall-clock read {label} reachable from a "
                        "result-producing path; use time.perf_counter() "
                        "for durations or pass timestamps in explicitly",
                        lines, path,
                    )
                    break


_CANONICAL_SINKS = {"canonical_dumps", "canonical_body", "weights_key"}
_HASH_CONSTRUCTORS = {"sha256", "sha1", "sha512", "md5", "blake2b", "blake2s"}


class _UnorderedScan(ast.NodeVisitor):
    """Find set/dict-keys subexpressions not wrapped in ``sorted(...)``."""

    def __init__(self) -> None:
        self.hits: list[tuple[ast.AST, str]] = []

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "sorted":
            return  # sorted(...) neutralizes anything beneath it
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            self.hits.append((node, f"{func.id}(...)"))
            # keep descending: set(x.keys()) should report once, at set()
            return
        if isinstance(func, ast.Attribute) and func.attr in ("keys", "values"):
            self.hits.append((node, f".{func.attr}() view"))
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self.hits.append((node, "set literal"))
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self.hits.append((node, "set comprehension"))
        self.generic_visit(node)


@register_rule
class UnorderedCanonicalOutput(Rule):
    """RL003: canonical/hashed output must not iterate unordered views."""

    id = "RL003"
    name = "unordered-iteration-to-canonical-output"
    contract = (
        "canonical JSON and content hashes are byte-stable: a set or "
        "dict-.keys() view reaching json.dump(s), canonical_dumps/"
        "canonical_body, or a hashlib constructor must pass through "
        "sorted(...) first"
    )

    def check(
        self, tree: ast.Module, lines: Sequence[str], path: str
    ) -> Iterable[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            sink = self._sink_label(node)
            if sink is None:
                continue
            scan = _UnorderedScan()
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                scan.visit(arg)
            for hit, what in scan.hits:
                yield self.finding(
                    hit,
                    f"{what} flows into {sink} without sorted(...): "
                    "iteration order is arbitrary, canonical bytes are not",
                    lines, path,
                )

    @staticmethod
    def _sink_label(node: ast.Call) -> Optional[str]:
        dotted = _dotted_name(node.func)
        if dotted in ("json.dumps", "json.dump") or (
            dotted is not None and dotted.endswith((".json.dumps", ".json.dump"))
        ):
            return dotted
        name = dotted.rsplit(".", 1)[-1] if dotted else None
        if name in _CANONICAL_SINKS:
            return name
        if (
            dotted is not None
            and dotted.startswith("hashlib.")
            and name in _HASH_CONSTRUCTORS
        ):
            return dotted
        return None


_SESSION_MUTATORS = frozenset(
    # The PR-5 thread-safety audit (repro.api.session module docstring):
    # these touch the evaluator's LRU caches, the sweep engine's memos,
    # or the lazily built baseline slots.
    {
        "under_scenario", "what_if", "scaled_traffic",
        "sweep", "sweep_space", "evaluate", "objective",
        "set_weights", "adopt", "optimize",
    }
)


@register_rule
class LockDiscipline(Rule):
    """RL004: serve-tier session mutations run under ``session.lock``."""

    id = "RL004"
    name = "lock-discipline"
    contract = (
        "a Session shared across threads is mutated only inside a "
        "`with <...>.lock:` block (repro.api.session thread-safety "
        "audit); the serve tier is where sessions are shared"
    )

    def applies_to(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        return "serve" in normalized.split("/")

    def check(
        self, tree: ast.Module, lines: Sequence[str], path: str
    ) -> Iterable[Finding]:
        findings: list[Finding] = []
        self._walk(tree, under_lock=False, lines=lines, path=path, out=findings)
        return findings

    def _walk(
        self,
        node: ast.AST,
        under_lock: bool,
        lines: Sequence[str],
        path: str,
        out: list[Finding],
    ) -> None:
        if isinstance(node, ast.With):
            holds = under_lock or any(
                isinstance(item.context_expr, ast.Attribute)
                and item.context_expr.attr in ("lock", "_lock")
                for item in node.items
            )
            for child in node.body:
                self._walk(child, holds, lines, path, out)
            for item in node.items:
                self._walk(item.context_expr, under_lock, lines, path, out)
            return
        if isinstance(node, ast.Call) and not under_lock:
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SESSION_MUTATORS
                and self._is_session(func.value)
            ):
                out.append(
                    self.finding(
                        node,
                        f"session.{func.attr}(...) outside a "
                        "`with <...>.lock:` block: shared-session state "
                        "races (see the Session thread-safety audit)",
                        lines, path,
                    )
                )
        for child in ast.iter_child_nodes(node):
            self._walk(child, under_lock, lines, path, out)

    @staticmethod
    def _is_session(receiver: ast.AST) -> bool:
        name = _receiver_name(receiver)
        return name is not None and "session" in name.lower()


_WRITE_MODES = {"w", "wt", "tw", "w+", "x", "xt"}


@register_rule
class NonAtomicWrite(Rule):
    """RL005: result writes use the tmp + ``os.replace`` idiom."""

    id = "RL005"
    name = "non-atomic-write"
    contract = (
        "store/bench/baseline artifacts are replaced atomically "
        "(repro.ioutil.atomic_write_text: tmp + os.replace); a torn "
        "open(path, 'w') write leaves half-records resume logic trusts"
    )

    def check(
        self, tree: ast.Module, lines: Sequence[str], path: str
    ) -> Iterable[Finding]:
        findings: list[Finding] = []
        self._check_scope(tree, lines, path, findings)
        return findings

    def _check_scope(
        self,
        scope: ast.AST,
        lines: Sequence[str],
        path: str,
        out: list[Finding],
    ) -> None:
        """One function body (or the module top level) at a time.

        The atomicity idiom is local: a scope that calls ``os.replace``
        (or ``<tmp>.replace``) is assumed to be an implementation of the
        idiom itself, so its direct writes are the tmp-file side and not
        flagged.  Nested functions are independent scopes.
        """
        body_writes: list[tuple[ast.AST, str]] = []
        has_replace = False
        nested: list[ast.AST] = []

        def visit(node: ast.AST) -> None:
            nonlocal has_replace
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node is not scope
            ):
                nested.append(node)
                return
            if isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted == "os.replace" or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "replace"
                    and len(node.args) <= 1
                ):
                    has_replace = True
                target = self._write_target(node, dotted)
                if target is not None:
                    body_writes.append((node, target))
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(scope)
        if not has_replace:
            for node, what in body_writes:
                out.append(
                    self.finding(
                        node,
                        f"{what} without the tmp + os.replace idiom: use "
                        "repro.ioutil.atomic_write_text (a torn write "
                        "corrupts the record a resume would trust)",
                        lines, path,
                    )
                )
        for scope_node in nested:
            self._check_scope(scope_node, lines, path, out)

    @staticmethod
    def _write_target(node: ast.Call, dotted: Optional[str]) -> Optional[str]:
        """A human label when ``node`` opens a file for writing."""
        name = dotted.rsplit(".", 1)[-1] if dotted else None
        if name == "open":
            mode = None
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
                mode = node.args[1].value
            for kw in node.keywords:
                if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                    mode = kw.value.value
            if isinstance(mode, str) and mode.replace("b", "") in _WRITE_MODES:
                receiver = node.args[0] if node.args else None
                if NonAtomicWrite._is_tmp(receiver):
                    return None
                return f"open(..., {mode!r})"
            return None
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "write_text", "write_bytes"
        ):
            if NonAtomicWrite._is_tmp(node.func.value):
                return None
            return f".{node.func.attr}(...)"
        return None

    @staticmethod
    def _is_tmp(receiver: Optional[ast.AST]) -> bool:
        """Writes to an explicit tmp path are the idiom's first half."""
        while isinstance(receiver, ast.Call):
            receiver = receiver.func
        name = _receiver_name(receiver) if receiver is not None else None
        return name is not None and "tmp" in name.lower()


_TELEMETRY_SINKS = frozenset(
    # Canonical-byte producers and the result-payload builders feeding
    # them: anything reaching these becomes part of a record's identity.
    {
        "canonical_body", "canonical_dumps",
        "whatif_payload", "sweep_payload", "space_payload",
        "build_record",
    }
)


@register_rule
class TelemetryInCanonicalOutput(Rule):
    """RL006: obs telemetry never flows into canonical result bytes."""

    id = "RL006"
    name = "telemetry-in-canonical-output"
    contract = (
        "repro.obs telemetry is out-of-band: counters, snapshots, and "
        "span data must never reach canonical_body/canonical_dumps or a "
        "result-payload builder — run-dependent values in canonical "
        "bytes break differential bit-identity"
    )

    def check(
        self, tree: ast.Module, lines: Sequence[str], path: str
    ) -> Iterable[Finding]:
        names, prefixes = self._tainted_bindings(tree)
        if not names and not prefixes:
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            sink = dotted.rsplit(".", 1)[-1] if dotted else None
            if sink not in _TELEMETRY_SINKS:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for leak, what in self._scan(arg, names, prefixes):
                    yield self.finding(
                        leak,
                        f"{what} flows into {sink}(...): telemetry is "
                        "out-of-band and must not shape canonical result "
                        "bytes (emit it via /metrics or the trace log)",
                        lines, path,
                    )

    @staticmethod
    def _tainted_bindings(
        tree: ast.Module,
    ) -> tuple[set[str], set[str]]:
        """Names and dotted prefixes bound to :mod:`repro.obs`."""
        names: set[str] = set()
        prefixes: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "repro":
                    names.update(
                        (a.asname or a.name)
                        for a in node.names if a.name == "obs"
                    )
                elif node.module and (
                    node.module == "repro.obs"
                    or node.module.startswith("repro.obs.")
                ):
                    names.update((a.asname or a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "repro.obs" or a.name.startswith("repro.obs."):
                        if a.asname:
                            names.add(a.asname)
                        else:
                            prefixes.add("repro.obs")
        return names, prefixes

    @classmethod
    def _scan(
        cls, node: ast.AST, names: set[str], prefixes: set[str]
    ) -> Iterable[tuple[ast.AST, str]]:
        """Tainted subexpressions of one sink argument.

        Recursion stops at a tainted chain so ``obs.snapshot()`` reports
        once (the chain), not again for the inner ``obs`` name.
        """
        if isinstance(node, ast.Name) and node.id in names:
            yield node, node.id
            return
        if isinstance(node, ast.Attribute):
            dotted = _dotted_name(node)
            if dotted is not None:
                root = dotted.split(".", 1)[0]
                if root in names or any(
                    dotted == p or dotted.startswith(p + ".")
                    for p in prefixes
                ):
                    yield node, dotted
                    return
        for child in ast.iter_child_nodes(node):
            yield from cls._scan(child, names, prefixes)
