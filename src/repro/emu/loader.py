"""GAS (AT&T) assembly text parser.

Parses the subset of GNU assembler syntax the generator emits back into
the instruction IR, enabling:

- round-trip validation (``emit -> parse -> emit`` must be a fixed point),
- running a ``.S`` file under the emulator without access to the original
  :class:`~repro.core.framework.GeneratedKernel` object,
- inspecting/regression-testing externally provided kernels.

Supported syntax: labels, instructions with register / immediate /
``disp(base,index,scale)`` memory operands, label operands on jumps,
``#`` comments, and the directives the emitter produces (kept as
:class:`Directive` items).  The ``q`` size suffix added for
immediate-to-memory forms is stripped back to the canonical mnemonic.
"""

from __future__ import annotations

import re
from typing import List, Optional

from ..isa.instructions import (
    INSTR_INFO,
    Comment,
    Directive,
    Instr,
    Item,
    Label,
)
from ..isa.operands import Imm, LabelRef, Mem
from ..isa.registers import GP, VEC, Register


class AsmParseError(ValueError):
    """Unrecognized assembly syntax."""


_REG_TABLES = {**GP, **VEC}

_MEM_RE = re.compile(
    r"^(-?\d+)?\(\s*(%\w+)?\s*(?:,\s*(%\w+)\s*(?:,\s*(\d+))?)?\s*\)$"
)


def _parse_register(text: str) -> Register:
    name = text.lstrip("%")
    try:
        return _REG_TABLES[name]
    except KeyError:
        raise AsmParseError(f"unknown register {text!r}") from None


def parse_operand(text: str):
    text = text.strip()
    if text.startswith("$"):
        try:
            return Imm(int(text[1:], 0))
        except ValueError:
            raise AsmParseError(f"bad immediate {text!r}") from None
    if text.startswith("%"):
        return _parse_register(text)
    m = _MEM_RE.match(text)
    if m:
        disp = int(m.group(1)) if m.group(1) else 0
        base = _parse_register(m.group(2)) if m.group(2) else None
        index = _parse_register(m.group(3)) if m.group(3) else None
        scale = int(m.group(4)) if m.group(4) else 1
        return Mem(base=base, disp=disp, index=index, scale=scale)
    if re.match(r"^[.\w$]+$", text):
        return LabelRef(text)
    raise AsmParseError(f"cannot parse operand {text!r}")


def _split_operands(text: str) -> List[str]:
    """Split on commas that are not inside parentheses."""
    parts: List[str] = []
    depth = 0
    current = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    if current.strip():
        parts.append(current)
    return [p.strip() for p in parts]


def _canonical_mnemonic(mnemonic: str) -> str:
    if mnemonic in INSTR_INFO:
        return mnemonic
    # strip the size suffix the emitter adds for imm-to-mem forms
    if mnemonic.endswith("q") and mnemonic[:-1] in INSTR_INFO:
        return mnemonic[:-1]
    raise AsmParseError(f"unknown mnemonic {mnemonic!r}")


def parse_line(line: str) -> Optional[Item]:
    """Parse one line of GAS text (None for blank lines)."""
    code = line.split("#", 1)[0].strip() if "#" in line else line.strip()
    if not code:
        stripped = line.strip()
        if stripped.startswith("#"):
            return Comment(stripped[1:].strip())
        return None
    if code.startswith("."):
        if code.endswith(":"):
            return Label(code[:-1])
        first = code.split(None, 1)[0]
        if first.rstrip(":").count(":") == 0 and not code.endswith(":"):
            return Directive(code)
    if code.endswith(":"):
        return Label(code[:-1])
    parts = code.split(None, 1)
    mnemonic = _canonical_mnemonic(parts[0])
    operand_text = parts[1] if len(parts) > 1 else ""
    operands = [parse_operand(t) for t in _split_operands(operand_text)]
    return Instr(mnemonic, tuple(operands))


def parse_gas(text: str) -> List[Item]:
    """Parse GAS text into an item stream (labels, instrs, directives)."""
    items: List[Item] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            item = parse_line(line)
        except AsmParseError as exc:
            raise AsmParseError(f"line {lineno}: {exc}") from None
        if item is not None:
            items.append(item)
    return items


def parse_gas_function(text: str) -> List[Item]:
    """Parse a complete emitted function, returning only the executable
    body (directives and the function label are dropped, so the result can
    be passed to :func:`repro.emu.run.call_items` directly)."""
    items = parse_gas(text)
    body: List[Item] = []
    seen_code = False
    for it in items:
        if isinstance(it, Directive):
            continue
        if isinstance(it, Label) and not it.name.startswith(".L"):
            continue  # the function symbol itself
        if isinstance(it, (Instr, Label)):
            seen_code = True
            body.append(it)
        elif isinstance(it, Comment) and seen_code:
            body.append(it)
    return body
