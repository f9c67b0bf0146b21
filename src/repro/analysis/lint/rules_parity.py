"""Kernel-parity rules (``PAR4xx``): the C ↔ Python-caller contract.

:mod:`repro.sim._ckernels` embeds C source for the two hot kernels,
which read and write buffers owned by their Python callers in
``arrays.py`` / ``energy.py``.  That ABI lives in *three* places that
nothing ties together at runtime:

* the C function definitions inside ``_C_SOURCE``;
* the cffi ``_CDEF`` declarations and the ctypes binding table;
* the Python side — buffer element widths (``array`` typecodes), the
  ``_refresh_addrs`` address-block layout the C ``bufs[]`` indexes into,
  call-site arities, and duplicated numeric constants (``SEC``).

A one-sided edit to any of them compiles fine and silently breaks the
byte-identity guarantee against the object-walk reference.  These rules parse the embedded C (a small
comment-stripping + regex pass — the kernels are deliberately plain C)
and the sibling Python modules, then cross-check:

* ``PAR401`` exported symbol sets agree everywhere;
* ``PAR402`` arity and buffer element widths agree (C pointer types vs
  ``array`` typecodes, ``bufs[i]`` casts vs the ``_refresh_addrs``
  order);
* ``PAR403`` numeric constants defined on both sides agree.

All findings anchor in ``_ckernels.py`` (C-source lines are mapped back
to real file lines), so noqa/baseline handling works unchanged.  The
pure core :func:`analyze_parity` takes sources as strings, which is how
the self-test corpus injects seeded drift.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .findings import Finding
from .rules import FileContext, Rule, register

__all__ = ["analyze_parity", "ParityIssue", "load_sibling_sources"]

#: The kernel module these rules anchor on.
KERNEL_BASENAME = "_ckernels.py"

#: Python caller modules read from the kernel module's directory.
SIBLING_BASENAMES = ("arrays.py", "energy.py", "engine.py")

#: C type name -> element width in bytes (the subset the kernels use).
_C_WIDTHS = {
    "int64_t": 8,
    "uint64_t": 8,
    "double": 8,
    "int32_t": 4,
    "uint32_t": 4,
    "int": 4,
    "float": 4,
    "int16_t": 2,
    "uint16_t": 2,
    "int8_t": 1,
    "uint8_t": 1,
    "char": 1,
}

#: ``array`` module typecode -> element width in bytes.
_TYPECODE_WIDTHS = {
    "q": 8, "Q": 8, "d": 8,
    "l": 8, "L": 8,
    "i": 4, "I": 4, "f": 4,
    "h": 2, "H": 2,
    "b": 1, "B": 1,
}


@dataclass(frozen=True)
class ParityIssue:
    """One contract violation, anchored at a ``_ckernels.py`` line."""

    code: str
    line: int
    message: str


@dataclass
class CParam:
    ctype: str
    pointer: int
    name: str

    @property
    def width(self) -> Optional[int]:
        return _C_WIDTHS.get(self.ctype)


@dataclass
class CFunction:
    name: str
    params: list[CParam]
    line: int
    #: ``bufs[i]`` unpacking casts: index -> (element width, C var name).
    buf_widths: dict[int, tuple[int, str]] = field(default_factory=dict)


@dataclass
class _PyCall:
    symbol: str
    n_args: int
    #: per positional arg: attribute name when the arg is
    #: ``addr(<obj>.attr)`` / ``<obj>.attr.buffer_info()[0]``, else None.
    arg_attrs: list[Optional[str]]


@dataclass
class _PySide:
    """Everything the Python siblings say about the kernel contract."""

    #: attribute -> element widths it is ever (re)bound to.
    attr_widths: dict[str, set[int]] = field(default_factory=dict)
    #: bufs[] layout: attribute per index, from ``_refresh_addrs``.
    params_order: list[str] = field(default_factory=list)
    #: module-level numeric constants, per file: name -> value.
    constants: dict[str, float] = field(default_factory=dict)
    #: kernel symbols referenced (directly or via a ``self._fn`` alias).
    referenced: set[str] = field(default_factory=set)
    calls: list[_PyCall] = field(default_factory=list)


# --------------------------------------------------------------------- C side
def _strip_c_comments(src: str) -> str:
    """Blank out ``/* */`` and ``//`` comments, preserving newlines."""

    def blank(match: "re.Match[str]") -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    src = re.sub(r"/\*.*?\*/", blank, src, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", blank, src)


_C_FUNC_RE = re.compile(
    r"^(?P<ret>\w+)\s+(?P<name>\w+)\s*\((?P<params>[^)]*)\)\s*\{",
    re.MULTILINE | re.DOTALL,
)

_C_PARAM_RE = re.compile(r"^(?P<type>\w+)\s*(?P<stars>[\s*]*)\s*(?P<name>\w+)$")

_C_CONST_RE = re.compile(
    r"(?:static\s+)?const\s+\w+\s+(?P<name>\w+)\s*=\s*(?P<value>[^;]+);"
)

_C_DEFINE_RE = re.compile(r"#define\s+(?P<name>\w+)\s+(?P<value>\S+)")

_C_BUF_RE = re.compile(
    r"(?P<decl>\w+)\s*\*\s*(?P<var>\w+)\s*=\s*"
    r"(?:\(\s*(?P<cast>\w+)\s*\*\s*\)\s*)?bufs\[(?P<idx>\d+)\]"
)


def _parse_c_param(raw: str) -> Optional[CParam]:
    raw = re.sub(r"\bconst\b", " ", raw).strip()
    m = _C_PARAM_RE.match(raw)
    if m is None:
        return None
    return CParam(
        ctype=m.group("type"),
        pointer=m.group("stars").count("*"),
        name=m.group("name"),
    )


def _parse_c_functions(c_src: str, base_line: int) -> dict[str, CFunction]:
    """Top-level function definitions in the (comment-stripped) C blob."""
    stripped = _strip_c_comments(c_src)
    funcs: dict[str, CFunction] = {}
    matches = list(_C_FUNC_RE.finditer(stripped))
    for i, m in enumerate(matches):
        params = [
            p
            for raw in m.group("params").split(",")
            if (p := _parse_c_param(raw)) is not None
        ]
        line = base_line + stripped.count("\n", 0, m.start())
        fn = CFunction(name=m.group("name"), params=params, line=line)
        body_end = matches[i + 1].start() if i + 1 < len(matches) else len(stripped)
        for bm in _C_BUF_RE.finditer(stripped, m.end(), body_end):
            width = _C_WIDTHS.get(bm.group("cast") or bm.group("decl"))
            if width is not None:
                fn.buf_widths[int(bm.group("idx"))] = (width, bm.group("var"))
        funcs[fn.name] = fn
    return funcs


def _parse_c_number(raw: str) -> Optional[float]:
    raw = raw.strip().rstrip("uUlLfF")
    try:
        return float(int(raw, 0))
    except ValueError:
        try:
            return float(raw)
        except ValueError:
            return None


def _parse_c_constants(c_src: str, base_line: int) -> dict[str, tuple[float, int]]:
    stripped = _strip_c_comments(c_src)
    out: dict[str, tuple[float, int]] = {}
    for regex in (_C_CONST_RE, _C_DEFINE_RE):
        for m in regex.finditer(stripped):
            value = _parse_c_number(m.group("value"))
            if value is not None:
                line = base_line + stripped.count("\n", 0, m.start())
                out[m.group("name")] = (value, line)
    return out


_CDEF_DECL_RE = re.compile(
    r"(?P<ret>\w+)\s+(?P<name>\w+)\s*\((?P<params>[^)]*)\)\s*;", re.DOTALL
)


def _parse_cdef(cdef_src: str) -> dict[str, int]:
    """cffi declaration name -> parameter count."""
    return {
        m.group("name"): len([p for p in m.group("params").split(",") if p.strip()])
        for m in _CDEF_DECL_RE.finditer(cdef_src)
    }


# ---------------------------------------------------------------- kernel file
def _string_assignment(tree: ast.Module, name: str) -> Optional[tuple[str, int]]:
    """``(value, first content line)`` of a module-level string constant."""
    for node in tree.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if (
            isinstance(target, ast.Name)
            and target.id == name
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            return value.value, value.lineno
    return None


def _parse_ctypes_table(tree: ast.Module) -> dict[str, int]:
    """The ``(("bl_submit", 6), ...)`` binding table, wherever it sits."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Tuple) or len(node.elts) < 1:
            continue
        pairs: list[tuple[str, int]] = []
        for elt in node.elts:
            if (
                isinstance(elt, ast.Tuple)
                and len(elt.elts) == 2
                and isinstance(elt.elts[0], ast.Constant)
                and isinstance(elt.elts[0].value, str)
                and isinstance(elt.elts[1], ast.Constant)
                and isinstance(elt.elts[1].value, int)
            ):
                pairs.append((elt.elts[0].value, elt.elts[1].value))
            else:
                pairs = []
                break
        for name, n_args in pairs:
            out[name] = n_args
    return out


# -------------------------------------------------------------- python side
def _assigned_width(value: ast.expr) -> Optional[int]:
    """Element width of ``array("<tc>", ...)`` / ``bytearray(...)``."""
    if not isinstance(value, ast.Call) or not isinstance(value.func, ast.Name):
        return None
    if value.func.id == "bytearray":
        return 1
    if (
        value.func.id == "array"
        and value.args
        and isinstance(value.args[0], ast.Constant)
        and isinstance(value.args[0].value, str)
    ):
        return _TYPECODE_WIDTHS.get(value.args[0].value)
    return None


def _attr_of(node: ast.AST) -> Optional[str]:
    """``attr`` for any ``<name>.attr`` shape (``self.x``, ``log.t``)."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr
    return None


def _addr_arg_attr(arg: ast.expr) -> Optional[str]:
    """Attribute whose address this call argument passes, if any.

    Matches ``addr(<obj>.attr)`` (any single-arg wrapper name) and the
    inline ``<obj>.attr.buffer_info()[0]`` shape.
    """
    if (
        isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Name)
        and len(arg.args) == 1
    ):
        return _attr_of(arg.args[0])
    if (
        isinstance(arg, ast.Subscript)
        and isinstance(arg.value, ast.Call)
        and isinstance(arg.value.func, ast.Attribute)
        and arg.value.func.attr == "buffer_info"
    ):
        return _attr_of(arg.value.func.value)
    return None


def _params_order(tree: ast.Module) -> list[str]:
    """bufs[] layout from ``_refresh_addrs``: attribute name per index."""
    for node in ast.walk(tree):
        if not (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "_refresh_addrs"
        ):
            continue
        for stmt in ast.walk(node):
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                continue
            value = stmt.value
            if not (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "array"
                and len(value.args) == 2
                and isinstance(value.args[1], ast.List)
            ):
                continue
            order: list[str] = []
            for elt in value.args[1].elts:
                attr = _addr_arg_attr(elt)
                if attr is None:
                    order = []
                    break
                order.append(attr)
            if order:
                return order
    return []


def _collect_py_side(sources: dict[str, str], symbols: set[str]) -> _PySide:
    side = _PySide()
    for name, source in sorted(sources.items()):
        try:
            tree = ast.parse(source, filename=name)
        except SyntaxError:
            continue
        side.params_order = side.params_order or _params_order(tree)
        #: self-attribute aliases for kernel functions (``self._fn``).
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if target is not None and value is not None:
                attr = _attr_of(target)
                if attr is not None:
                    width = _assigned_width(value)
                    if width is not None:
                        side.attr_widths.setdefault(attr, set()).add(width)
                    referenced = (
                        value.attr if isinstance(value, ast.Attribute) else None
                    )
                    if referenced in symbols:
                        aliases[attr] = referenced
                        side.referenced.add(referenced)
                if (
                    isinstance(target, ast.Name)
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, (int, float))
                    and not isinstance(value.value, bool)
                ):
                    side.constants.setdefault(target.id, float(value.value))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func_attr = _attr_of(node.func) or (
                node.func.attr if isinstance(node.func, ast.Attribute) else None
            )
            symbol: Optional[str] = None
            if func_attr in symbols:
                symbol = func_attr
            elif func_attr in aliases:
                symbol = aliases[func_attr]
            if symbol is None:
                continue
            side.referenced.add(symbol)
            side.calls.append(
                _PyCall(
                    symbol=symbol,
                    n_args=len(node.args),
                    arg_attrs=[_addr_arg_attr(a) for a in node.args],
                )
            )
    return side


# ------------------------------------------------------------------ analysis
def analyze_parity(
    kernel_source: str, siblings: dict[str, str]
) -> list[ParityIssue]:
    """Cross-check the C/Python kernel contract; pure (string in, issues out).

    ``kernel_source`` is the full Python source of ``_ckernels.py``;
    ``siblings`` maps basenames (``arrays.py`` …) to their sources.
    Issue lines refer to ``kernel_source``.
    """
    issues: list[ParityIssue] = []
    try:
        tree = ast.parse(kernel_source, filename=KERNEL_BASENAME)
    except SyntaxError:
        return issues

    blob = _string_assignment(tree, "_C_SOURCE")
    cdef = _string_assignment(tree, "_CDEF")
    if blob is None or cdef is None:
        issues.append(
            ParityIssue(
                "PAR401",
                1,
                "kernel module defines no _C_SOURCE/_CDEF string — the "
                "parity checker has nothing to verify against",
            )
        )
        return issues

    c_funcs = _parse_c_functions(blob[0], blob[1])
    c_consts = _parse_c_constants(blob[0], blob[1])
    cdef_arity = _parse_cdef(cdef[0])
    ctypes_arity = _parse_ctypes_table(tree)
    symbols = set(c_funcs) | set(cdef_arity) | set(ctypes_arity)
    py = _collect_py_side(siblings, symbols)

    issues.extend(_check_symbols(c_funcs, cdef_arity, ctypes_arity, py, cdef[1]))
    issues.extend(_check_signatures(c_funcs, cdef_arity, ctypes_arity, py))
    issues.extend(_check_constants(c_consts, py))
    issues.sort(key=lambda i: (i.code, i.line, i.message))
    return issues


def _check_symbols(
    c_funcs: dict[str, CFunction],
    cdef_arity: dict[str, int],
    ctypes_arity: dict[str, int],
    py: _PySide,
    cdef_line: int,
) -> Iterator[ParityIssue]:
    c_names = set(c_funcs)
    for label, names, line in (
        ("_CDEF cffi declarations", set(cdef_arity), cdef_line),
        ("ctypes binding table", set(ctypes_arity), cdef_line),
    ):
        for missing in sorted(c_names - names):
            yield ParityIssue(
                "PAR401",
                c_funcs[missing].line,
                f"C kernel {missing}() is not declared in the {label}",
            )
        for extra in sorted(names - c_names):
            yield ParityIssue(
                "PAR401",
                line,
                f"{label} declares {extra}() but the embedded C source "
                "defines no such function",
            )
    for unused in sorted(c_names - py.referenced):
        yield ParityIssue(
            "PAR401",
            c_funcs[unused].line,
            f"C kernel {unused}() is never referenced from the Python "
            "kernel layer (arrays.py/energy.py)",
        )


def _check_signatures(
    c_funcs: dict[str, CFunction],
    cdef_arity: dict[str, int],
    ctypes_arity: dict[str, int],
    py: _PySide,
) -> Iterator[ParityIssue]:
    for name, fn in sorted(c_funcs.items()):
        n = len(fn.params)
        for label, table in (
            ("_CDEF cffi declaration", cdef_arity),
            ("ctypes binding table", ctypes_arity),
        ):
            if name in table and table[name] != n:
                yield ParityIssue(
                    "PAR402",
                    fn.line,
                    f"{name}() takes {n} parameters in C but the {label} "
                    f"binds {table[name]}",
                )
        for call in py.calls:
            if call.symbol != name:
                continue
            if call.n_args != n:
                yield ParityIssue(
                    "PAR402",
                    fn.line,
                    f"{name}() takes {n} parameters in C but a Python "
                    f"call site passes {call.n_args}",
                )
                continue
            yield from _check_pointer_widths(fn, call, py)
        yield from _check_buf_widths(fn, py)


def _check_pointer_widths(
    fn: CFunction, call: _PyCall, py: _PySide
) -> Iterator[ParityIssue]:
    """C pointer params vs the typecode of the buffer passed by address."""
    for param, attr in zip(fn.params, call.arg_attrs):
        if param.pointer != 1 or attr is None:
            continue
        widths = py.attr_widths.get(attr)
        if not widths or param.width is None:
            continue
        for width in sorted(widths - {param.width}):
            yield ParityIssue(
                "PAR402",
                fn.line,
                f"{fn.name}() parameter {param.name} is {param.ctype}* "
                f"({param.width}-byte elements) but Python buffer "
                f".{attr} is built with {width}-byte elements",
            )


def _check_buf_widths(fn: CFunction, py: _PySide) -> Iterator[ParityIssue]:
    """``bufs[i]`` casts vs the ``_refresh_addrs`` layout's typecodes."""
    if not fn.buf_widths or not py.params_order:
        return
    max_idx = max(fn.buf_widths)
    if max_idx >= len(py.params_order):
        yield ParityIssue(
            "PAR402",
            fn.line,
            f"{fn.name}() reads bufs[{max_idx}] but _refresh_addrs packs "
            f"only {len(py.params_order)} buffer addresses",
        )
        return
    for idx, (width, var) in sorted(fn.buf_widths.items()):
        attr = py.params_order[idx]
        widths = py.attr_widths.get(attr)
        if not widths:
            continue
        for got in sorted(widths - {width}):
            yield ParityIssue(
                "PAR402",
                fn.line,
                f"{fn.name}() unpacks bufs[{idx}] as {var} with "
                f"{width}-byte elements but _refresh_addrs puts .{attr} "
                f"there, built with {got}-byte elements",
            )


def _check_constants(
    c_consts: dict[str, tuple[float, int]], py: _PySide
) -> Iterator[ParityIssue]:
    for name, (c_value, line) in sorted(c_consts.items()):
        py_value = py.constants.get(name)
        if py_value is not None and py_value != c_value:
            yield ParityIssue(
                "PAR403",
                line,
                f"constant {name} is {c_value!r} in the embedded C source "
                f"but {py_value!r} on the Python side — the backends will "
                "diverge",
            )


# --------------------------------------------------------------------- rules
def load_sibling_sources(kernel_path: str) -> dict[str, str]:
    """Read the Python caller modules next to ``kernel_path``."""
    directory = os.path.dirname(os.path.abspath(kernel_path))
    sources: dict[str, str] = {}
    for basename in SIBLING_BASENAMES:
        path = os.path.join(directory, basename)
        try:
            with open(path, "r", encoding="utf-8") as f:
                sources[basename] = f.read()
        except OSError:
            continue
    return sources


class _ParityRule(Rule):
    """Shared driver: run :func:`analyze_parity`, keep this rule's code."""

    scopes = ("sim",)

    def applies_to(self, path: str) -> bool:
        return super().applies_to(path) and os.path.basename(path) == KERNEL_BASENAME

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        siblings = load_sibling_sources(ctx.path)
        for issue in analyze_parity(ctx.source, siblings):
            if issue.code == self.code:
                yield Finding(
                    path=ctx.path,
                    line=issue.line,
                    col=1,
                    code=issue.code,
                    message=issue.message,
                )


@register
class SymbolParityRule(_ParityRule):
    """PAR401: exported kernel symbols must agree everywhere."""

    code = "PAR401"
    name = "kernel-symbol-parity"
    description = (
        "functions defined in the embedded C source, declared in _CDEF, "
        "bound in the ctypes table, and called from the Python kernel "
        "layer must be the same set — a rename in one place silently "
        "breaks a binding"
    )


@register
class SignatureParityRule(_ParityRule):
    """PAR402: arity and buffer element widths must agree."""

    code = "PAR402"
    name = "kernel-signature-parity"
    description = (
        "C parameter counts vs _CDEF/ctypes bindings and Python call "
        "sites, and C pointer element widths vs the array typecodes of "
        "the buffers whose addresses are passed (including the bufs[] "
        "block packed by _refresh_addrs)"
    )


@register
class ConstantParityRule(_ParityRule):
    """PAR403: numeric constants duplicated across backends must agree."""

    code = "PAR403"
    name = "kernel-constant-parity"
    description = (
        "a numeric constant defined in the embedded C source and under "
        "the same name in the Python kernel layer (e.g. SEC) must have "
        "the same value in both — one-sided edits break byte-identity"
    )
