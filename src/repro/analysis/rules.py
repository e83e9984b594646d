"""File-scoped lint rules: P1, P2, D1, F1, A1, A2, X1.

Each rule is a class with a ``code``, a one-line ``title``, a longer
``rationale`` (both surfaced by ``lint --list-rules`` and mirrored in
``docs/LINT.md``), and a ``check(module, project)`` generator yielding
:class:`~repro.analysis.diagnostics.Diagnostic` records.  The
project-scoped C1 rule lives in :mod:`repro.analysis.parity`.

All analysis is pure AST + source text -- nothing is imported or
executed, so the linter can safely chew on known-bad fixtures.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.config import LintConfig
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.purity import ALIAS_METHODS, MUTATING_METHODS, mutation_sites
from repro.analysis.suppress import SuppressionIndex

__all__ = [
    "ALL_RULE_CODES",
    "ModuleUnderLint",
    "ProjectIndex",
    "RULES",
    "Rule",
    "rule_catalog",
]


@dataclass
class ModuleUnderLint:
    """One parsed module plus everything rules need to know about it."""

    relpath: str
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex
    is_core: bool


@dataclass
class ProjectIndex:
    """Cross-module facts collected in one pre-pass over every module.

    Attributes:
        float_returns: Names of functions/methods annotated ``-> float``
            (or ``Optional[float]``) anywhere in the project; a call to
            one is treated as float-valued by F1.
        float_attrs: Attribute names annotated float-ish in any class
            body or ``self.x: float`` assignment -- minus names also
            annotated as something else elsewhere, and minus
            :data:`AMBIGUOUS_ATTRS`.
    """

    float_returns: Set[str] = field(default_factory=set)
    float_attrs: Set[str] = field(default_factory=set)

    @classmethod
    def build(cls, modules: List[ModuleUnderLint]) -> "ProjectIndex":
        returns: Set[str] = set()
        float_attrs: Set[str] = set()
        other_attrs: Set[str] = set()
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.returns is not None and _is_float_annotation(node.returns):
                        returns.add(node.name)
                elif isinstance(node, ast.AnnAssign):
                    name = _annassign_attr_name(node)
                    if name is None:
                        continue
                    if _is_float_annotation(node.annotation):
                        float_attrs.add(name)
                    else:
                        other_attrs.add(name)
        return cls(
            float_returns=returns,
            float_attrs=(float_attrs - other_attrs) - AMBIGUOUS_ATTRS,
        )

    @classmethod
    def from_facts(cls, facts_list) -> "ProjectIndex":
        """Rebuild the index from cached per-file facts (no trees).

        Each item needs ``float_returns`` / ``float_attrs`` /
        ``other_attrs`` attributes; see
        :class:`repro.analysis.facts.ModuleFacts`.
        """
        returns: Set[str] = set()
        float_attrs: Set[str] = set()
        other_attrs: Set[str] = set()
        for facts in facts_list:
            returns.update(facts.float_returns)
            float_attrs.update(facts.float_attrs)
            other_attrs.update(facts.other_attrs)
        return cls(
            float_returns=returns,
            float_attrs=(float_attrs - other_attrs) - AMBIGUOUS_ATTRS,
        )

    def fingerprint(self) -> str:
        """Hash of the cross-file inputs F1 consumes (cache gate)."""
        import hashlib
        import json

        payload = json.dumps(
            {
                "float_returns": sorted(self.float_returns),
                "float_attrs": sorted(self.float_attrs),
            },
            sort_keys=True,
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


#: Attribute names too polysemous to infer a float type from: every
#: ``enum.Enum`` member is read through ``.value`` with no annotation
#: anywhere, so one ``value: Optional[float]`` dataclass field must not
#: turn every enum access into a float comparison.
AMBIGUOUS_ATTRS = frozenset({"value"})


def _annassign_attr_name(node: ast.AnnAssign) -> Optional[str]:
    """Attribute name declared by ``x: T`` in a class or ``self.x: T``."""
    target = node.target
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
        if target.value.id in ("self", "cls"):
            return target.attr
    return None


def _is_float_annotation(node: ast.AST) -> bool:
    """Does this annotation denote ``float`` / ``Optional[float]``?"""
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.replace(" ", "")
        return text in ("float", "Optional[float]", "float|None", "None|float")
    if isinstance(node, ast.Subscript):
        base = node.value
        if isinstance(base, ast.Name) and base.id == "Optional":
            return _is_float_annotation(node.slice)
        if isinstance(base, ast.Attribute) and base.attr == "Optional":
            return _is_float_annotation(node.slice)
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left_none = isinstance(node.left, ast.Constant) and node.left.value is None
        right_none = isinstance(node.right, ast.Constant) and node.right.value is None
        if left_none:
            return _is_float_annotation(node.right)
        if right_none:
            return _is_float_annotation(node.left)
    return False


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def scope_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Every node in ``root``'s scope, not descending into nested scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(node))


def iter_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    """Every function/method in the module, however nested."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin for every import in the module."""
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def resolve_call_name(node: ast.Call, imports: Dict[str, str]) -> Optional[str]:
    """The dotted call target with its first segment import-resolved."""
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = imports.get(head)
    if origin is not None:
        dotted = f"{origin}.{rest}" if rest else origin
    return dotted


# ----------------------------------------------------------------------
# Rule base
# ----------------------------------------------------------------------


class Rule:
    """One lint rule; subclasses set the class attributes and ``check``."""

    code: str = ""
    title: str = ""
    rationale: str = ""
    severity: Severity = Severity.ERROR

    def check(
        self, module: ModuleUnderLint, config: LintConfig, project: ProjectIndex
    ) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self, module: ModuleUnderLint, node: ast.AST, message: str
    ) -> Diagnostic:
        return Diagnostic(
            code=self.code,
            message=message,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            severity=self.severity,
        )


# ----------------------------------------------------------------------
# P1: argument mutation in per-entity units / stage functions
# ----------------------------------------------------------------------


class ArgMutationRule(Rule):
    code = "P1"
    title = "per-entity unit mutates a value derived from its arguments"
    rationale = (
        "The vector backend's clean-entity path reuses a unit's previous "
        "output whenever its inputs did not change; that is only sound if "
        "units never mutate their arguments (collected state, snapshots, "
        "hardened state) or anything reachable from them."
    )

    def check(self, module, config, project):
        for func in iter_functions(module.tree):
            if not config.is_entity_function(func.name):
                continue
            for node, _root, description in mutation_sites(func):
                yield self.diagnostic(
                    module,
                    node,
                    f"{func.name}() must be pure: {description}",
                )


# ----------------------------------------------------------------------
# P2: module-level mutable state touched from core stages
# ----------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "OrderedDict", "Counter"}
)


class ModuleStateRule(Rule):
    code = "P2"
    title = "core stage reads or writes module-level mutable state"
    rationale = (
        "Hidden module state makes a stage's output depend on call history, "
        "which breaks per-entity reuse and report-for-report parity between "
        "the serial and vector paths.  State must flow through explicit "
        "arguments or per-instance fields."
    )

    def check(self, module, config, project):
        if not module.is_core:
            return
        mutable = self._module_level_mutables(module.tree)
        for func in iter_functions(module.tree):
            for node in scope_nodes(func):
                if isinstance(node, ast.Global):
                    names = ", ".join(node.names)
                    yield self.diagnostic(
                        module,
                        node,
                        f"{func.name}() declares 'global {names}'; stage state "
                        "must flow through arguments or instance fields",
                    )
                elif isinstance(node, ast.Name) and node.id in mutable:
                    action = "writes" if isinstance(node.ctx, ast.Store) else "reads"
                    yield self.diagnostic(
                        module,
                        node,
                        f"{func.name}() {action} module-level mutable "
                        f"{node.id!r}; pass it explicitly or make it immutable",
                    )

    @staticmethod
    def _module_level_mutables(tree: ast.Module) -> Set[str]:
        """Names bound at module level to a mutable container."""
        mutable: Set[str] = set()
        for node in tree.body:
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not _is_mutable_container(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    mutable.add(target.id)
        return mutable


def _is_mutable_container(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted is not None and dotted.split(".")[-1] in _MUTABLE_CONSTRUCTORS:
            return True
    return False


# ----------------------------------------------------------------------
# D1: nondeterminism hazards
# ----------------------------------------------------------------------

#: ``random``-module functions driving the shared global RNG.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    }
)

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Factories that return an asyncio event loop.  ``.time()`` on one is
#: a host-clock read -- the asyncio flavour of ``time.monotonic()``,
#: but fetched ambiently rather than injected, so streamed-pipeline
#: latencies become untestable and replay-hostile.  The sanctioned
#: wrapper is ``obs.clock.event_loop_time`` inside the clock seam.
_EVENT_LOOP_FACTORIES = frozenset(
    {
        "asyncio.get_running_loop",
        "asyncio.get_event_loop",
        "asyncio.new_event_loop",
        "asyncio.events.get_running_loop",
        "asyncio.events.get_event_loop",
        "asyncio.events.new_event_loop",
    }
)

#: Wrappers that make iteration order irrelevant (or impose one).
_ORDER_SAFE_WRAPPERS = frozenset(
    {"all", "any", "frozenset", "len", "max", "min", "set", "sorted", "sum"}
)

#: Consumers that freeze the iteration order into ordered output.
_ORDERING_CONSUMERS = frozenset({"list", "tuple", "enumerate"})


class NondeterminismRule(Rule):
    code = "D1"
    title = "nondeterminism hazard in a core stage"
    rationale = (
        "Validation must be replayable: the same snapshot and inputs must "
        "yield the identical report on the python and vector backends, across "
        "processes and PYTHONHASHSEED values.  Global RNG calls, wall-clock "
        "and event-loop clock reads, set iteration feeding ordered output, "
        "and id()-keyed maps all break that."
    )

    def check(self, module, config, project):
        if not module.is_core:
            return
        imports = import_map(module.tree)
        yield from self._calls(module, config, imports)
        yield from self._event_loop_clock(module, config, imports)
        yield from self._id_keyed(module)
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(iter_functions(module.tree))
        for scope in scopes:
            yield from self._set_iteration(module, scope)

    # -- global RNG and wall clock ------------------------------------

    def _calls(self, module, config, imports):
        # The clock-injection seam (obs/clock.py) is the one module
        # allowed to read the wall clock; the exemption is per-file,
        # never per-directory, so a time.time() smuggled into a span
        # body elsewhere in obs/ still trips D1.
        clock_seam = module.relpath in config.clock_seam_paths
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_call_name(node, imports)
            if dotted is None:
                continue
            if dotted in config.wall_clock_allowed:
                continue
            if clock_seam and dotted in _WALL_CLOCK:
                continue
            if dotted in _WALL_CLOCK:
                yield self.diagnostic(
                    module,
                    node,
                    f"wall-clock read {dotted}() in a core stage; epoch time "
                    "must come from the snapshot, not the host clock",
                )
            elif dotted.startswith("random.") and dotted.split(".", 1)[1] in _GLOBAL_RANDOM_FNS:
                yield self.diagnostic(
                    module,
                    node,
                    f"{dotted}() drives the shared global RNG; use a seeded "
                    "random.Random instance passed in explicitly",
                )

    # -- asyncio event-loop clock reads -------------------------------

    def _event_loop_clock(self, module, config, imports):
        # Same per-file seam as the wall clock: obs/clock.py wraps the
        # one sanctioned loop.time() read (event_loop_time); everywhere
        # else in core the event-loop clock must arrive injected.
        if module.relpath in config.clock_seam_paths:
            return
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(iter_functions(module.tree))
        for scope in scopes:
            loop_names = _loop_bound_names(scope, imports)
            for node in scope_nodes(scope):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "time"
                    and not node.args
                    and not node.keywords
                ):
                    continue
                receiver = node.func.value
                if isinstance(receiver, ast.Call):
                    dotted = resolve_call_name(receiver, imports)
                    if dotted not in _EVENT_LOOP_FACTORIES:
                        continue
                elif not (isinstance(receiver, ast.Name) and receiver.id in loop_names):
                    continue
                yield self.diagnostic(
                    module,
                    node,
                    "event-loop clock read (loop.time()) in a core stage; "
                    "take latency stamps through the injected seam "
                    "(obs.clock.event_loop_time) so tests can pin the clock",
                )

    # -- id()-keyed maps ----------------------------------------------

    def _id_keyed(self, module):
        for node in ast.walk(module.tree):
            key_exprs: List[ast.AST] = []
            if isinstance(node, ast.Subscript):
                key_exprs.append(node.slice)
            elif isinstance(node, ast.Dict):
                key_exprs.extend(k for k in node.keys if k is not None)
            elif isinstance(node, ast.DictComp):
                key_exprs.append(node.key)
            for key in key_exprs:
                if (
                    isinstance(key, ast.Call)
                    and isinstance(key.func, ast.Name)
                    and key.func.id == "id"
                ):
                    yield self.diagnostic(
                        module,
                        key,
                        "id()-keyed map: object identities vary run to run; "
                        "key by a stable name or structural key instead",
                    )

    # -- set iteration into ordered output ----------------------------

    def _set_iteration(self, module, scope):
        known_sets = _known_set_names(scope)
        exempt: Set[int] = set()
        for node in scope_nodes(scope):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ORDER_SAFE_WRAPPERS:
                    for arg in node.args:
                        exempt.add(id(arg))

        for node in scope_nodes(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if id(node.iter) in exempt:
                    continue
                if _is_set_expr(node.iter, known_sets) and _body_is_order_sensitive(node):
                    yield self.diagnostic(
                        module,
                        node,
                        "for-loop iterates a set while accumulating ordered "
                        "output; wrap the iterable in sorted(...)",
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if id(node) in exempt:
                    continue
                for generator in node.generators:
                    if _is_set_expr(generator.iter, known_sets):
                        yield self.diagnostic(
                            module,
                            node,
                            "comprehension iterates a set into ordered output; "
                            "wrap the iterable in sorted(...)",
                        )
                        break
            elif isinstance(node, ast.Call):
                func_name = node.func.id if isinstance(node.func, ast.Name) else None
                if func_name in _ORDERING_CONSUMERS:
                    for arg in node.args:
                        if _is_set_expr(arg, known_sets):
                            yield self.diagnostic(
                                module,
                                node,
                                f"{func_name}() freezes set iteration order into "
                                "a sequence; use sorted(...) instead",
                            )
                            break


def _loop_bound_names(scope: ast.AST, imports: Dict[str, str]) -> Set[str]:
    """Names in this scope bound to an asyncio event-loop factory call.

    Conservative by design: only plain-name assignments are tracked
    (``loop = asyncio.get_running_loop()``), which is how every real
    sighting reads.  A loop smuggled through an attribute still gets
    caught at the direct ``asyncio.get_*_loop().time()`` chain.
    """
    names: Set[str] = set()
    for node in scope_nodes(scope):
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        else:
            continue
        if not isinstance(value, ast.Call):
            continue
        if resolve_call_name(value, imports) not in _EVENT_LOOP_FACTORIES:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _known_set_names(scope: ast.AST) -> Set[str]:
    """Names in this scope whose every binding is a set expression.

    ``None`` initialisations are neutral (a common init-then-fill
    pattern); a single non-set binding disqualifies the name.
    """
    candidates: Dict[str, bool] = {}
    known: Set[str] = set()
    for _pass in range(2):  # two passes reach a fixpoint for chained assigns
        candidates.clear()
        for node in scope_nodes(scope):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if value is None or (isinstance(value, ast.Constant) and value.value is None):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                is_set = _is_set_expr(value, known)
                previous = candidates.get(target.id)
                candidates[target.id] = is_set if previous is None else (previous and is_set)
        known = {name for name, is_set in candidates.items() if is_set}
    return known


def _is_keys_view(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
    )


def _is_set_expr(node: ast.AST, known_sets: Set[str]) -> bool:
    """Conservatively: does this expression definitely produce a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in known_sets
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "union", "intersection", "difference", "symmetric_difference"
        ):
            return _is_set_expr(func.value, known_sets)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        sides = (node.left, node.right)
        if any(_is_set_expr(side, known_sets) for side in sides):
            return True
        # dict .keys() views combine into plain sets under |, &, ^, -.
        return any(_is_keys_view(side) for side in sides)
    return False


def _body_is_order_sensitive(loop: ast.For) -> bool:
    """Does the loop body freeze iteration order into ordered output?"""
    for stmt in loop.body + loop.orelse:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in ("append", "extend", "insert", "appendleft"):
                    return True
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Subscript) for t in targets):
                    return True
    return False


# ----------------------------------------------------------------------
# F1: bare float equality
# ----------------------------------------------------------------------


class FloatEqualityRule(Rule):
    code = "F1"
    title = "bare float ==/!= in a core stage"
    rationale = (
        "Measured rates pass through arithmetic that is not bit-stable "
        "across code paths; exact equality silently becomes never-equal.  "
        "Use the tolerance helpers (math.isclose, Invariant.evaluate, "
        "_relative_gap).  Where exact identity IS the contract -- e.g. the "
        "vector backend's reuse guards, where a spurious difference "
        "only costs a recompute -- suppress with a rationale."
    )

    def check(self, module, config, project):
        if not module.is_core:
            return
        for func in iter_functions(module.tree):
            float_names = _float_locals(func, project)
            for node in scope_nodes(func):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left] + list(node.comparators)
                for i, op in enumerate(node.ops):
                    if not isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    left, right = operands[i], operands[i + 1]
                    if _is_none(left) or _is_none(right):
                        continue
                    if _is_floatish(left, float_names, project) or _is_floatish(
                        right, float_names, project
                    ):
                        yield self.diagnostic(
                            module,
                            node,
                            "bare float equality; compare through a tolerance "
                            "helper, or suppress where exact identity is the "
                            "contract",
                        )
                        break


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _float_locals(func: ast.FunctionDef, project: ProjectIndex) -> Set[str]:
    """Local names inferred float-typed inside ``func``."""
    names: Set[str] = set()
    args = list(func.args.posonlyargs) + list(func.args.args) + list(func.args.kwonlyargs)
    for arg in args:
        if arg.annotation is not None and _is_float_annotation(arg.annotation):
            names.add(arg.arg)
    for _pass in range(2):
        for node in scope_nodes(func):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _is_float_annotation(node.annotation):
                    names.add(node.target.id)
            elif isinstance(node, ast.Assign) and _is_floatish(node.value, names, project):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


_ARITHMETIC_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)


def _is_floatish(node: ast.AST, float_names: Set[str], project: ProjectIndex) -> bool:
    """Heuristically: is this expression float-valued?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Name):
        return node.id in float_names
    if isinstance(node, ast.Attribute):
        return node.attr in project.float_attrs
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted is None:
            return False
        tail = dotted.split(".")[-1]
        return tail == "float" or tail in project.float_returns
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITHMETIC_OPS):
        if isinstance(node.op, ast.Div):
            return True
        return _is_floatish(node.left, float_names, project) or _is_floatish(
            node.right, float_names, project
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_floatish(node.operand, float_names, project)
    if isinstance(node, ast.IfExp):
        return _is_floatish(node.body, float_names, project) or _is_floatish(
            node.orelse, float_names, project
        )
    return False


# ----------------------------------------------------------------------
# A1: blocking calls inside async defs
# ----------------------------------------------------------------------


def _is_executor_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "run_in_executor"
    )


class BlockingAsyncRule(Rule):
    code = "A1"
    title = "blocking call inside an async def"
    rationale = (
        "One synchronous sleep, file read, or socket call inside a "
        "coroutine stalls every feed, the assembler, and the consumer "
        "sharing the event loop -- in fleet mode, every tenant.  Use the "
        "async equivalent (asyncio.sleep, loop.run_in_executor) and "
        "always await executor futures so failures surface."
    )

    def check(self, module, config, project):
        if not module.is_core:
            return
        imports = import_map(module.tree)
        for func in iter_functions(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            executor_futures: Dict[str, ast.AST] = {}
            awaited: Set[str] = set()
            for node in scope_nodes(func):
                if isinstance(node, ast.Call):
                    dotted = resolve_call_name(node, imports)
                    if dotted in config.blocking_calls:
                        yield self.diagnostic(
                            module,
                            node,
                            f"{dotted}() blocks the event loop inside async "
                            f"{func.name}(); use the async equivalent or "
                            "run_in_executor",
                        )
                elif isinstance(node, ast.Expr) and _is_executor_call(node.value):
                    yield self.diagnostic(
                        module,
                        node.value,
                        f"run_in_executor() future discarded in async "
                        f"{func.name}(); await it (directly or via gather) so "
                        "executor failures propagate",
                    )
                elif isinstance(node, ast.Assign) and _is_executor_call(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            executor_futures.setdefault(target.id, node.value)
                elif isinstance(node, ast.Await):
                    for sub in ast.walk(node):
                        if isinstance(sub, ast.Name):
                            awaited.add(sub.id)
            for name in sorted(set(executor_futures) - awaited):
                yield self.diagnostic(
                    module,
                    executor_futures[name],
                    f"executor future {name!r} is never awaited in async "
                    f"{func.name}(); its result and exceptions are lost",
                )


# ----------------------------------------------------------------------
# A2: state mutated across an await without a lock/queue discipline
# ----------------------------------------------------------------------

#: Method calls that ARE the coordination discipline: invoking one on
#: an attribute does not count as touching shared state (the queue /
#: event / metric object is the safe channel itself).
_CHANNEL_METHODS = frozenset(
    {
        "put", "put_nowait", "get_nowait", "task_done", "join",
        "acquire", "release", "wait", "notify", "notify_all",
        "inc", "dec", "observe", "set_to", "labels",
    }
)


@dataclass
class _Access:
    """One touch of a shared key inside an async function."""

    key: str
    write: bool
    pos: int  # number of awaits executed before this access
    node: ast.AST
    loop_hazard: bool  # a write inside a loop whose body awaits


class _AsyncScan:
    """Linearizes one async function into (key, read/write, await-count).

    Within a single statement the model is reads -> awaits -> writes
    (matching ``self.x = await f(self.y)`` evaluation order), so two
    accesses with different ``pos`` have an await strictly between
    them.  Statements under an ``async with <lock>`` guard are atomic:
    skipped entirely, counted as one await.
    """

    def __init__(
        self,
        config: LintConfig,
        func: ast.AST,
        track_self: bool,
        tracked_names: Set[str],
    ) -> None:
        self.config = config
        self.track_self = track_self
        self.tracked_names = tracked_names
        self.accesses: List[_Access] = []
        self._pos = 0
        self._stmts(func.body, loop_await=False)

    # -- statement walk ------------------------------------------------

    def _stmts(self, stmts: List[ast.stmt], loop_await: bool) -> None:
        for stmt in stmts:
            self._stmt(stmt, loop_await)

    def _stmt(self, stmt: ast.stmt, loop_await: bool) -> None:
        if isinstance(stmt, _SCOPE_NODES):
            return
        if isinstance(stmt, ast.If):
            self._simple(stmt.test, loop_await)
            self._stmts(stmt.body, loop_await)
            self._stmts(stmt.orelse, loop_await)
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            has_await = isinstance(stmt, ast.AsyncFor) or any(
                isinstance(node, (ast.Await, ast.AsyncFor, ast.AsyncWith))
                for node in scope_nodes(stmt)
            )
            inner = loop_await or has_await
            if isinstance(stmt, ast.While):
                self._simple(stmt.test, inner)
            else:
                self._simple(stmt.iter, loop_await)
            if has_await:
                self._pos += 1
            self._stmts(stmt.body, inner)
            self._stmts(stmt.orelse, loop_await)
        elif isinstance(stmt, ast.Try):
            self._stmts(stmt.body, loop_await)
            for handler in stmt.handlers:
                self._stmts(handler.body, loop_await)
            self._stmts(stmt.orelse, loop_await)
            self._stmts(stmt.finalbody, loop_await)
        elif isinstance(stmt, ast.AsyncWith) and self._is_guarded(stmt):
            self._pos += 1  # __aenter__/__aexit__ yield, contents are atomic
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            if isinstance(stmt, ast.AsyncWith):
                self._pos += 1
            for item in stmt.items:
                self._simple(item.context_expr, loop_await)
            self._stmts(stmt.body, loop_await)
            if isinstance(stmt, ast.AsyncWith):
                self._pos += 1
        else:
            self._simple(stmt, loop_await)

    def _is_guarded(self, stmt: ast.AsyncWith) -> bool:
        for item in stmt.items:
            dotted = dotted_name(item.context_expr)
            if dotted is None and isinstance(item.context_expr, ast.Call):
                dotted = dotted_name(item.context_expr.func)
            if dotted is not None and self.config.is_async_guard(dotted):
                return True
        return False

    # -- simple statements / expressions -------------------------------

    def _simple(self, node: ast.AST, loop_await: bool) -> None:
        nodes = [node] + [n for n in scope_nodes(node)]
        awaits = sum(1 for n in nodes if isinstance(n, ast.Await))
        for key, write, access_node in self._accesses_in(nodes):
            pos = self._pos + (awaits if write else 0)
            self.accesses.append(
                _Access(key, write, pos, access_node, loop_await and write)
            )
        self._pos += awaits

    def _accesses_in(self, nodes: List[ast.AST]):
        handled: Set[int] = set()
        out: List[Tuple[str, bool, ast.AST]] = []
        for node in nodes:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                keyed = self._key_of(node.func.value)
                if keyed is None:
                    continue
                key, anchor = keyed
                handled.add(id(anchor))
                if node.func.attr in _CHANNEL_METHODS:
                    continue
                write = node.func.attr in MUTATING_METHODS
                out.append((key, write, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    keyed = self._key_of(target)
                    if keyed is None:
                        continue
                    key, anchor = keyed
                    handled.add(id(anchor))
                    out.append((key, True, target))
                    if isinstance(node, ast.AugAssign):
                        out.append((key, False, target))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    keyed = self._key_of(target)
                    if keyed is None:
                        continue
                    key, anchor = keyed
                    handled.add(id(anchor))
                    out.append((key, True, target))
        for node in nodes:
            if id(node) in handled:
                continue
            if (
                self.track_self
                and isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                write = not isinstance(node.ctx, ast.Load)
                out.append((f"self.{node.attr}", write, node))
            elif isinstance(node, ast.Name) and node.id in self.tracked_names:
                write = not isinstance(node.ctx, ast.Load)
                out.append((node.id, write, node))
        return out

    def _key_of(self, expr: ast.AST) -> Optional[Tuple[str, ast.AST]]:
        """(key, anchor access node) for a target/receiver expression."""
        node = expr
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            inner = node.value
            if (
                self.track_self
                and isinstance(inner, ast.Name)
                and inner.id == "self"
                and isinstance(node, ast.Attribute)
            ):
                return f"self.{node.attr}", node
            node = inner
        if isinstance(node, ast.Name) and node.id in self.tracked_names:
            return node.id, node
        return None


class AwaitStateRule(Rule):
    code = "A2"
    title = "state mutated across an await without a queue/lock discipline"
    rationale = (
        "Every await is a scheduling point: another task runs and "
        "observes the instance mid-update.  A field written on one side "
        "of an await and touched on the other -- in the same coroutine or "
        "a sibling coroutine of the class -- is exactly the hazard that "
        "loses stream terminations under load.  Route the value through "
        "the queue item itself, keep it local to one coroutine, or guard "
        "both sides with an async lock."
    )

    def check(self, module, config, project):
        if not module.is_core:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, config, node)
        for func in iter_functions(module.tree):
            if isinstance(func, ast.AsyncFunctionDef):
                yield from self._check_closures(module, config, func)

    # -- instance state across a class's coroutines --------------------

    def _check_class(self, module, config, cls):
        scans: Dict[str, _AsyncScan] = {}
        for node in cls.body:
            if isinstance(node, ast.AsyncFunctionDef):
                scans[node.name] = _AsyncScan(config, node, True, set())
        if not scans:
            return
        flagged: Dict[int, Tuple[ast.AST, str]] = {}
        for name in sorted(scans):
            self._h1(scans[name], name, flagged)
        # H2: write in one coroutine, any touch in a sibling coroutine.
        touched: Dict[str, Set[str]] = {}
        for name, scan in scans.items():
            for access in scan.accesses:
                touched.setdefault(access.key, set()).add(name)
        for name in sorted(scans):
            for access in scans[name].accesses:
                if not access.write or id(access.node) in flagged:
                    continue
                others = sorted(touched.get(access.key, set()) - {name})
                if others:
                    flagged[id(access.node)] = (
                        access.node,
                        f"{access.key} is written in async {name}() and "
                        f"touched in async {others[0]}(); coroutines "
                        "interleave at every await -- pass the value through "
                        "the queue item or guard both sides with an async "
                        "lock",
                    )
        for node, message in sorted(
            flagged.values(),
            key=lambda item: (item[0].lineno, item[0].col_offset, item[1]),
        ):
            yield self.diagnostic(module, node, message)

    def _h1(self, scan, where, flagged):
        by_key: Dict[str, List[_Access]] = {}
        for access in scan.accesses:
            by_key.setdefault(access.key, []).append(access)
        for key in sorted(by_key):
            accesses = by_key[key]
            for access in accesses:
                if not access.write or id(access.node) in flagged:
                    continue
                if access.loop_hazard:
                    flagged[id(access.node)] = (
                        access.node,
                        f"{key} is mutated inside a loop that awaits in async "
                        f"{where}(); the next iteration resumes after other "
                        "tasks ran -- keep the accumulator local or guard the "
                        "loop body with an async lock",
                    )
                elif any(
                    other.node is not access.node and other.pos != access.pos
                    for other in accesses
                ):
                    flagged[id(access.node)] = (
                        access.node,
                        f"{key} is accessed on both sides of an await in "
                        f"async {where}(); another task can observe or clobber "
                        "the intermediate state -- recompute after the await "
                        "or guard with an async lock",
                    )

    # -- closure/global names inside one coroutine ----------------------

    def _check_closures(self, module, config, func):
        tracked: Set[str] = set()
        for node in scope_nodes(func):
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                tracked.update(node.names)
        if not tracked:
            return
        flagged: Dict[int, Tuple[ast.AST, str]] = {}
        self._h1(_AsyncScan(config, func, False, tracked), func.name, flagged)
        for node, message in sorted(
            flagged.values(),
            key=lambda item: (item[0].lineno, item[0].col_offset, item[1]),
        ):
            yield self.diagnostic(module, node, message)


# ----------------------------------------------------------------------
# X1: cache mutation without exception-safety discipline
# ----------------------------------------------------------------------

#: Calls that cannot raise in a way that leaves a half-mutated cache
#: observable (pure builtins and converters).
_SAFE_CALL_NAMES = frozenset(
    {
        "len", "isinstance", "issubclass", "repr", "str", "int", "float",
        "bool", "id", "print", "tuple", "min", "max", "sorted", "list",
        "dict", "set", "frozenset", "getattr", "hasattr", "format", "range",
        "enumerate", "zip", "abs", "round", "sum",
    }
)

#: Attribute calls on a plain-name receiver that are data-structure or
#: formatting operations, not arbitrary user code.
_SAFE_CALL_ATTRS = (
    MUTATING_METHODS
    | ALIAS_METHODS
    | frozenset(
        {
            "copy", "join", "split", "startswith", "endswith", "lower",
            "upper", "strip", "format", "isnan", "isclose", "isfinite",
            "info", "debug", "warning",
        }
    )
)

_FRESH_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter"}
)


class CacheMutationRule(Rule):
    code = "X1"
    title = "cache store mutated without exception-safety discipline"
    rationale = (
        "Long-lived stores (TopologyCacheStore, VectorModelStore, "
        "_EpochMemo) outlive any one epoch; an exception after an "
        "in-place mutation leaves entries the next epoch will trust.  "
        "Mutations followed by fallible work must sit in a try whose "
        "handler resets the store, or build a fresh structure and "
        "assign it once at the end (build-then-swap)."
    )

    def check(self, module, config, project):
        if not module.is_core:
            return
        for func, in_store_class in _functions_with_store_class(
            module.tree, config.cache_store_classes
        ):
            yield from self._check_function(module, config, func, in_store_class)

    # ------------------------------------------------------------------

    def _check_function(self, module, config, func, in_store_class):
        tracked = self._tracked_names(func, config, in_store_class)
        if not tracked and not in_store_class:
            return
        mutations = self._mutations(func, tracked, in_store_class, config)
        if not mutations:
            return
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(func):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for node, description in mutations:
            ancestors = self._ancestors(node, func, parents)
            if self._protected(ancestors, tracked, config):
                continue
            if not self._hazardous(func, node, ancestors, parents):
                continue
            yield self.diagnostic(
                module,
                node,
                f"{description} in {func.name}() is not exception-safe: a "
                "later failure leaves the store half-updated for the next "
                "epoch; wrap in try/except calling reset()/clear(), or build "
                "locally and assign once at the end",
            )

    # -- what is tracked ------------------------------------------------

    def _tracked_names(self, func, config, in_store_class) -> Set[str]:
        tracked: Set[str] = set()
        args = func.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            if config.is_cache_param(arg.arg):
                tracked.add(arg.arg)
        changed = True
        while changed:
            changed = False
            for node in scope_nodes(func):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                if not self._derives(value, tracked, in_store_class):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name) and target.id not in tracked:
                        tracked.add(target.id)
                        changed = True
        return tracked

    def _derives(self, value, tracked, in_store_class) -> bool:
        """Does this expression alias state already in a tracked store?"""
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute) and func.attr in ALIAS_METHODS:
                return self._derives(func.value, tracked, in_store_class)
            dotted = dotted_name(func)
            if dotted is not None and dotted.split(".")[-1] in _FRESH_CONSTRUCTORS:
                return False
            return False
        node = value
        while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            node = node.value
        if isinstance(node, ast.Name):
            if node.id in tracked:
                return True
            if in_store_class and node.id == "self" and value is not node:
                return True
        return False

    # -- what counts as a mutation --------------------------------------

    def _mutations(self, func, tracked, in_store_class, config):
        out: List[Tuple[ast.AST, str]] = []
        for node in scope_nodes(func):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    described = self._mutating_target(
                        target, tracked, in_store_class
                    )
                    if described is not None:
                        out.append((target, described))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        described = self._mutating_target(
                            target, tracked, in_store_class
                        )
                        if described is not None:
                            out.append(
                                (target, described.replace("item write", "item delete"))
                            )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr not in MUTATING_METHODS:
                    continue
                if node.func.attr in config.cache_reset_names:
                    # reset()/clear()/invalidate() IS the sanctioned
                    # recovery action -- emptying a store is exception-
                    # safe by definition (no half-applied state).
                    continue
                receiver = node.func.value
                if self._derives(receiver, tracked, in_store_class) or (
                    isinstance(receiver, ast.Name) and receiver.id in tracked
                ):
                    label = dotted_name(node.func) or node.func.attr
                    out.append((node, f"in-place {label}()"))
        return out

    def _mutating_target(self, target, tracked, in_store_class) -> Optional[str]:
        """Description if this store target is an in-place mutation.

        Plain rebinds (``cache = ...``, ``self.entries = ...``) are
        atomic and exempt -- they ARE the build-then-swap endgame.
        """
        if isinstance(target, ast.Subscript):
            if self._derives(target.value, tracked, in_store_class) or (
                isinstance(target.value, ast.Name) and target.value.id in tracked
            ):
                base = dotted_name(target.value) or "store"
                return f"item write {base}[...]"
            return None
        if isinstance(target, ast.Attribute):
            inner = target.value
            if isinstance(inner, ast.Name) and inner.id == "self":
                return None  # depth-1 self.x rebind: atomic
            if isinstance(inner, ast.Name) and inner.id in tracked:
                return f"field write {inner.id}.{target.attr}"
            if self._derives(inner, tracked, in_store_class):
                base = dotted_name(inner) or "store"
                return f"field write {base}.{target.attr}"
        return None

    # -- protection and hazard ------------------------------------------

    def _ancestors(self, node, func, parents) -> List[ast.AST]:
        chain: List[ast.AST] = []
        current = node
        while current is not func:
            current = parents.get(current)
            if current is None:
                break
            chain.append(current)
        return chain

    def _protected(self, ancestors, tracked, config) -> bool:
        previous: Optional[ast.AST] = None
        for ancestor in ancestors:
            if isinstance(ancestor, ast.Try) and previous is not None:
                in_body = any(
                    previous is stmt or previous in ast.walk(stmt)
                    for stmt in ancestor.body
                )
                if in_body and any(
                    self._handler_resets(handler, tracked, config)
                    for handler in ancestor.handlers
                ):
                    return True
            previous = ancestor
        return False

    def _handler_resets(self, handler, tracked, config) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is not None and dotted.split(".")[-1] in config.cache_reset_names:
                    return True
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in tracked:
                        return True
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return True
        return False

    def _hazardous(self, func, node, ancestors, parents) -> bool:
        for ancestor in ancestors:
            if isinstance(ancestor, (ast.For, ast.AsyncFor, ast.While)):
                if self._contains_fallible(ancestor):
                    return True
                break  # nearest loop only
        return self._forward_hazard(func, node, ancestors, parents)

    def _forward_hazard(self, func, node, ancestors, parents) -> bool:
        """Can a fallible call or raise run after the mutation commits?"""
        chain = [node] + ancestors  # innermost first, func last
        for index, ancestor in enumerate(chain[:-1]):
            parent = chain[index + 1]
            for field_name in ("body", "orelse", "finalbody"):
                block = getattr(parent, field_name, None)
                if not isinstance(block, list) or ancestor not in block:
                    continue
                for stmt in block[block.index(ancestor) + 1:]:
                    if isinstance(stmt, ast.Return):
                        if stmt.value is not None and self._contains_fallible(
                            stmt.value
                        ):
                            return True
                        return False  # clean exit
                    if isinstance(stmt, (ast.Break, ast.Continue)):
                        break
                    if self._contains_fallible(stmt):
                        return True
        return False

    def _contains_fallible(self, node) -> bool:
        if isinstance(node, ast.Try) and node.handlers:
            return any(
                self._contains_fallible(stmt)
                for stmt in list(node.orelse) + list(node.finalbody)
            )
        if isinstance(node, _SCOPE_NODES):
            return False
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and self._fallible(node):
            return True
        return any(
            self._contains_fallible(child) for child in ast.iter_child_nodes(node)
        )

    @staticmethod
    def _fallible(node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id not in _SAFE_CALL_NAMES
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, (ast.Attribute, ast.Subscript)):
                return False  # data-structure op on a field, not user code
            return func.attr not in _SAFE_CALL_ATTRS and func.attr not in _SAFE_CALL_NAMES
        return True


def _functions_with_store_class(tree: ast.Module, store_classes: FrozenSet[str]):
    """(function, defined-inside-a-store-class) pairs, module-wide."""

    def visit(node: ast.AST, in_store: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name in store_classes)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, in_store
                yield from visit(child, in_store)
            else:
                yield from visit(child, in_store)

    yield from visit(tree, False)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: File-scoped rules, in reporting order.
RULES: Tuple[Rule, ...] = (
    ArgMutationRule(),
    ModuleStateRule(),
    NondeterminismRule(),
    FloatEqualityRule(),
    BlockingAsyncRule(),
    AwaitStateRule(),
    CacheMutationRule(),
)

#: Every rule code the linter can emit (incl. the project-scoped C1
#: registry-parity and T1 taint rules and the L1 unused-suppression
#: meta check).
ALL_RULE_CODES: Tuple[str, ...] = (
    "P1", "P2", "D1", "F1", "A1", "A2", "X1", "T1", "C1", "L1",
)


def rule_catalog() -> List[Dict[str, str]]:
    """Code/title/rationale for every rule (``lint --list-rules``)."""
    from repro.analysis.parity import RegistryParityRule
    from repro.analysis.suppress import UNUSED_SUPPRESSION_CODE
    from repro.analysis.taint import TaintSolver

    catalog = [
        {"code": rule.code, "title": rule.title, "rationale": rule.rationale}
        for rule in RULES
    ]
    catalog.append(
        {
            "code": TaintSolver.rule_code,
            "title": TaintSolver.title,
            "rationale": TaintSolver.rationale,
        }
    )
    parity = RegistryParityRule()
    catalog.append(
        {"code": parity.code, "title": parity.title, "rationale": parity.rationale}
    )
    catalog.append(
        {
            "code": UNUSED_SUPPRESSION_CODE,
            "title": "unused '# lint: ignore' suppression",
            "rationale": (
                "Suppressions document intentional contract exceptions; one "
                "that no longer silences anything is stale and must be removed "
                "so the exception inventory stays accurate."
            ),
        }
    )
    return catalog
