"""Install-time template JIT: eBPF bytecode to generated Python (paper §11).

The discussion section proposes removing interpretation overhead by
transpiling portable eBPF bytecode into native instructions *once, at
install time, on the device*.  This module implements that design point
for the simulation as a real template JIT: a verified program is lowered
into Python **source code** — one ``if _t == <pc>:`` dispatch arm per
basic block, registers as local variables, operands and branch targets
constant-folded from the pre-decoded slot table — then compiled with
:func:`compile`/``exec`` into a single function executed per run.  There
is no per-instruction dispatch at all; the only per-run work the template
leaves behind is exactly what cannot be hoisted:

* **memory checks** — loads and stores still go through the access list
  (computed addresses cannot be verified statically);
* the **N_b taken-branch budget**, enforced at block edges;
* **division-by-register** zero checks and helper-call containment.

Two structural optimizations ride on top of the block template:

* **natural-loop folding** — a conditional branch back to its own block
  becomes a native ``while`` (as in PR 1), and *multi-block* natural
  loops (head-only entry, contiguous leader interval) now fold into a
  nested dispatch loop over just their member blocks, so iterating a
  loop never re-traverses the top-level dispatch chain;
* **fallthrough superblocks** — when a block runs into the next leader,
  the successor is inlined in place (bounded by ``_Codegen.INLINE_CAP``),
  so per-kind counts keep batching across the boundary: no faultable
  instruction intervenes there, hence no flush and no dispatch round-trip.

Accounting parity is an invariant: per-kind instruction counts are
flushed to the shared ``kind_counts`` dict *before* every faultable
operation, so a faulted run carries exactly the same
:class:`~repro.vm.interpreter.ExecutionStats` the interpreter would
have produced — the per-platform cycle models (Fig. 8, Table 2/4) are
engine-independent and never see which engine executed the program.

Faithful to the paper's constraints, compilation happens only after
pre-flight verification (the generated code *relies* on the verifier's
guarantees: in-range jump targets, non-zero immediate divisors, shift
amounts in range, intact wide pairs), and installation charges a one-time
cost (modelled per platform) traded against per-run speedup — the
ablation benchmark ``benchmarks/test_sec11_ablations.py`` measures the
crossover.  The compiled template itself is **pure**: every piece of
per-run state (registers, access list, stats, helper trampoline, branch
budget) is passed in as an argument, which is what lets the process-wide
:data:`~repro.vm.imagecache.IMAGE_CACHE` share one template across all
container instances of the same text (keyed by the text's content hash,
so images that differ only in ``.rodata``/``.data`` share it too) —
attach re-charges the modelled install cost, but the host does the
expensive transpile/compile work once per text, not once per instance.
"""

from __future__ import annotations

import struct as _struct

from repro.vm import isa
from repro.vm.imagecache import IMAGE_CACHE, CompiledTemplate
from repro.vm.predecode import basic_blocks, find_leaders
from repro.vm.errors import (
    BranchLimitFault,
    DivisionFault,
    HelperFault,
    IllegalInstructionFault,
    VMFault,
)
from repro.vm.helpers import HelperRegistry
from repro.vm.interpreter import (
    ExecutionStats,
    Interpreter,
    VMConfig,
)
from repro.vm.memory import AccessList
from repro.vm.program import Program
from repro.vm.verifier import VerifierConfig

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1
_H64 = "0xffffffffffffffff"
_H32 = "0xffffffff"


def _s64(value: int) -> int:
    return value - (1 << 64) if value >= (1 << 63) else value


def _s32(value: int) -> int:
    value &= _M32
    return value - (1 << 32) if value >= (1 << 31) else value


# -- runtime support injected into the generated code's globals -------------

def _div_fault(pc: int) -> None:
    raise DivisionFault("division by zero", pc)


def _mod_fault(pc: int) -> None:
    raise DivisionFault("modulo by zero", pc)


def _branch_fault(limit: int, pc: int) -> None:
    raise BranchLimitFault(
        f"taken-branch budget N_b={limit} exhausted", pc
    )


def _total_fault(limit: int, pc: int) -> None:
    raise BranchLimitFault(
        f"execution exceeded the total budget of {limit} instructions", pc
    )


def _bad_target(target: int) -> None:  # pragma: no cover - verifier forbids
    raise IllegalInstructionFault(f"jump to unmapped block at pc {target}")


def _bswap16(value: int) -> int:
    return int.from_bytes((value & 0xFFFF).to_bytes(2, "little"), "big")


def _bswap32(value: int) -> int:
    return int.from_bytes((value & _M32).to_bytes(4, "little"), "big")


def _bswap64(value: int) -> int:
    return int.from_bytes((value & _M64).to_bytes(8, "little"), "big")


_JIT_GLOBALS = {
    "_div_fault": _div_fault,
    "_mod_fault": _mod_fault,
    "_branch_fault": _branch_fault,
    "_total_fault": _total_fault,
    "_bad_target": _bad_target,
    "_bswap16": _bswap16,
    "_bswap32": _bswap32,
    "_bswap64": _bswap64,
    # Width-specialized packers for the inlined memory fast path.
    "_u1": _struct.Struct("<B").unpack_from,
    "_u2": _struct.Struct("<H").unpack_from,
    "_u4": _struct.Struct("<I").unpack_from,
    "_u8": _struct.Struct("<Q").unpack_from,
    "_p1": _struct.Struct("<B").pack_into,
    "_p2": _struct.Struct("<H").pack_into,
    "_p4": _struct.Struct("<I").pack_into,
    "_p8": _struct.Struct("<Q").pack_into,
}

_SIZE_MASK = {1: 0xFF, 2: 0xFFFF, 4: _M32, 8: _M64}

_UNSIGNED_CMP = {
    isa.JMP_JEQ: "==",
    isa.JMP_JNE: "!=",
    isa.JMP_JGT: ">",
    isa.JMP_JGE: ">=",
    isa.JMP_JLT: "<",
    isa.JMP_JLE: "<=",
}

_SIGNED_CMP = {
    isa.JMP_JSGT: ">",
    isa.JMP_JSGE: ">=",
    isa.JMP_JSLT: "<",
    isa.JMP_JSLE: "<=",
}


class _Codegen:
    """Lowers one verified, pre-decoded program to Python source."""

    #: Cap on slots inlined into one dispatch arm by fallthrough-chain
    #: extension (bounds generated-code growth; see :meth:`emit_block`).
    INLINE_CAP = 64

    def __init__(self, program: Program, total_limit: int | None) -> None:
        self.decoded = program.decoded
        self.total_limit = total_limit
        self.lines: list[str] = []
        self.pending: dict[str, int] = {}
        self.indent = ""
        self.leaders, self.back_targets = find_leaders(self.decoded)
        self.blocks = basic_blocks(self.decoded, self.leaders)
        self.loops = self.find_loops()
        #: leader -> head of the folded loop it belongs to (heads included).
        self.member_of = {
            member: head
            for head, members in self.loops.items()
            for member in members
        }
        # Emission context: the dispatch variable and the member set of
        # the folded loop currently being emitted (None at top level).
        self.var = "_t"
        self.region: frozenset[int] | None = None

    # -- small emission helpers -------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def push_indent(self) -> None:
        self.indent += "    "

    def pop_indent(self) -> None:
        self.indent = self.indent[:-4]

    def count(self, kind: str, pc: int) -> None:
        self.pending[kind] = self.pending.get(kind, 0) + 1
        if self.total_limit is not None:
            # With a total budget the abort point must match the
            # interpreter instruction-for-instruction, so counts are
            # published (and the budget checked) per instruction instead
            # of batched per segment.
            self.flush(pc)

    def flush(self, pc: int) -> None:
        """Publish pending per-kind counts (before any faultable point)."""
        if not self.pending:
            return
        total = 0
        for kind, n in self.pending.items():
            total += n
            self.emit(f"_kc[{kind!r}] += {n}")
        self.pending.clear()
        if self.total_limit is not None:
            self.emit(f"_ex += {total}")
            self.emit(f"if _ex > {self.total_limit}: "
                      f"_total_fault({self.total_limit}, {pc})")

    # -- loop discovery ----------------------------------------------------

    def find_loops(self) -> dict[int, frozenset[int]]:
        """Foldable natural loops: head -> member leader set.

        A candidate is the contiguous leader interval ``[head, backedge]``
        spanned by a backward branch.  It folds only when the head is the
        loop's sole entry: no block outside the interval may branch or
        fall into any member other than the head (edges *leaving* the
        interval anywhere are fine — they lower to ``break``).  Overlapping
        candidates resolve outermost-first; a rejected inner backward edge
        then simply re-dispatches inside the folded outer loop.
        """
        candidates = []
        for block in self.blocks.values():
            term = block.term
            if block.kind != "branch" or term.target >= block.start:
                continue  # forward edge, or a self-loop (folded per block)
            head, end = term.target, block.tpc
            members = frozenset(
                leader for leader in self.leaders if head <= leader <= end
            )
            if len(members) >= 2:
                candidates.append((head, end, members))

        folded: dict[int, frozenset[int]] = {}
        taken: list[tuple[int, int]] = []
        for head, end, members in sorted(
            candidates, key=lambda c: c[0] - c[1]  # widest interval first
        ):
            if any(h <= end and head <= e for h, e in taken):
                continue  # overlaps an already-folded (wider) region
            head_only_entry = all(
                target == head or target not in members
                for block in self.blocks.values()
                if block.start not in members
                for target in block.successors()
            )
            if head_only_entry:
                folded[head] = members
                taken.append((head, end))
        return folded

    # -- whole-function generation ----------------------------------------

    def generate(self) -> str:
        # Hottest-first dispatch: backward-branch targets (loop heads)
        # come before straight-line blocks, the rest stay in program
        # order.  Members of folded loops are dispatched inside their
        # loop's arm and get no top-level arm of their own.
        covered = {
            member
            for head, members in self.loops.items()
            for member in members
            if member != head
        }
        arms = [
            leader
            for leader in sorted(
                self.leaders,
                key=lambda lpc: (lpc not in self.back_targets, lpc),
            )
            if leader not in covered
        ]
        out = [
            "def _fc_main(_regs, _mem, _stats, _kc, _hc, _call, _blimit):",
            "    _ld = _mem.load",
            "    _st = _mem.store",
        ]
        out.extend(f"    r{i} = _regs[{i}]" for i in range(isa.REG_COUNT))
        out.append("    _br = 0")
        if self.total_limit is not None:
            out.append("    _ex = 0")
        out.append("    _t = 0")
        out.append("    while 1:")
        for index, leader in enumerate(arms):
            guard = "if" if index == 0 else "elif"
            out.append(f"        {guard} _t == {leader}:")
            self.indent = " " * 12
            self.lines = []
            if leader in self.loops:
                self.emit_region(leader)
            else:
                self.var, self.region = "_t", None
                self.emit_block(leader)
            out.extend(self.lines)
        out.append("        else:")
        out.append("            _bad_target(_t)")
        return "\n".join(out) + "\n"

    def goto(self, target: int, prefix: str = "") -> None:
        """Emit a control transfer to ``target`` from the current context.

        Inside a folded loop, edges to fellow members re-enter the native
        ``while`` directly; edges leaving the loop ``break`` out with the
        top-level dispatch variable already set.
        """
        if self.region is not None and target not in self.region:
            self.emit(prefix + f"_t = {target}")
            self.emit(prefix + "break")
        else:
            self.emit(prefix + f"{self.var} = {target}")
            self.emit(prefix + "continue")

    def emit_region(self, head: int) -> None:
        """Fold one multi-block natural loop into a native Python loop.

        The loop body becomes a nested dispatch over just its member
        blocks (head first — it is re-entered on every iteration), so an
        iteration never re-traverses the top-level dispatch chain however
        long that chain is.
        """
        members = self.loops[head]
        self.emit(f"_t2 = {head}")
        self.emit("while 1:")
        self.push_indent()
        inner = [head] + sorted(m for m in members if m != head)
        for index, member in enumerate(inner):
            guard = "if" if index == 0 else "elif"
            self.emit(f"{guard} _t2 == {member}:")
            self.push_indent()
            self.var, self.region = "_t2", members
            self.emit_block(member)
            self.pop_indent()
        self.emit("else:")
        self.emit("    _bad_target(_t2)")
        self.pop_indent()
        self.emit("continue")
        self.var, self.region = "_t", None

    def _can_inline(self, target: int, inlined: int) -> bool:
        """May the block at ``target`` be emitted inline (superblock)?"""
        if target not in self.blocks or inlined >= self.INLINE_CAP:
            return False
        if self.region is not None:
            # Stay inside the folded loop; never inline its head (back
            # edges need the head's dispatch arm to land on).
            return target in self.region and target not in self.loops
        # At top level, folded-loop members have no dispatch arm and the
        # head must be entered through its region arm — don't duplicate.
        return target not in self.member_of

    def emit_block(self, start: int) -> None:
        decoded = self.decoded
        current = start
        inlined = 0
        while True:
            block = self.blocks[current]
            kind, tpc, td = block.kind, block.tpc, block.term

            # A conditional branch back to this very block is the classic
            # compiled-loop shape: emit it as a native Python loop so
            # iteration costs no dispatch at all.
            self_loop = (kind == "branch" and td.opcode != isa.JA
                         and td.target == current)
            if self_loop:
                # Counts batched from an inlined predecessor must be
                # published before the loop, not once per iteration.
                self.flush(current)
                self.emit("while 1:")
                self.push_indent()
            for ipc in block.body:
                self.emit_instruction(decoded[ipc], ipc)
            if kind == "exit":
                self.count("exit", tpc)
                self.flush(tpc)
                self.emit("return r0")
                return
            if kind == "branch":
                self.emit_branch(td, tpc, self_loop=self_loop)
                if self_loop:
                    self.pop_indent()
                    self.goto(tpc + 1)
                return
            # Fallthrough into another leader: extend the superblock in
            # place when legal, so per-kind counts keep batching across
            # the boundary (no faultable instruction intervenes there)
            # and the edge costs neither a flush nor a dispatch
            # round-trip.  The target keeps its own dispatch arm for its
            # other predecessors.
            if self._can_inline(tpc, inlined):
                inlined += len(self.blocks[tpc].body) + 1
                current = tpc
                continue
            self.flush(tpc)
            self.goto(tpc)
            return

    # -- straight-line instructions ---------------------------------------

    def emit_instruction(self, d, pc: int) -> None:
        cls = d.cls
        if cls == isa.CLS_ALU64:
            self.count(d.kind, pc)
            self.emit_alu64(d, pc)
        elif cls == isa.CLS_ALU:
            self.count(d.kind, pc)
            self.emit_alu32(d, pc)
        elif cls == isa.CLS_LDX:
            self.count("load", pc)
            self.flush(pc)
            self.emit_load(d)
        elif cls == isa.CLS_STX:
            self.count("store", pc)
            self.flush(pc)
            self.emit_store(d, f"r{d.src}")
        elif cls == isa.CLS_ST:
            self.count("store", pc)
            self.flush(pc)
            self.emit_store(d, f"{d.imm64:#x}")
        elif cls == isa.CLS_LD:  # wide: fully resolved at pre-decode
            self.count("lddw", pc)
            self.emit(f"r{d.dst} = {d.wide_value:#x}")
        elif d.opcode == isa.CALL:
            self.count("call", pc)
            self.flush(pc)
            self.emit(f"_hc[{d.imm}] = _hc.get({d.imm}, 0) + 1")
            self.emit(f"r0 = _call({d.imm}, {pc}, r1, r2, r3, r4, r5)")
        else:  # pragma: no cover - excluded by verification
            raise IllegalInstructionFault(
                f"cannot transpile opcode 0x{d.opcode:02x}", pc
            )

    @staticmethod
    def addr(base: int, offset: int) -> str:
        if offset == 0:
            return f"r{base}"  # registers are invariantly 64-bit masked
        return f"(r{base} + {offset}) & {_H64}"

    def emit_load(self, d) -> None:
        """A load with the access-list fast path expanded inline.

        The MRU region check and the width-specialized unpack are emitted
        directly into the template; only an MRU miss (or a fault) takes the
        out-of-line ``AccessList.load`` path, which re-runs the full
        bisect + permission check and raises the exact reference faults.
        """
        size = d.size
        self.emit(f"_a = {self.addr(d.src, d.offset)}")
        self.emit("_r = _mem._mru")
        self.emit("if _r is not None and _r.start <= _a "
                  f"and _a + {size} <= _r._end and _r._perm_bits & 1:")
        self.emit(f"    r{d.dst} = _u{size}(_r._view, _a - _r.start)[0]")
        self.emit("else:")
        self.emit(f"    r{d.dst} = _ld(_a, {size})")

    def emit_store(self, d, value: str) -> None:
        """A store with the access-list fast path expanded inline."""
        size = d.size
        self.emit(f"_a = {self.addr(d.dst, d.offset)}")
        self.emit("_r = _mem._mru")
        self.emit("if _r is not None and _r.start <= _a "
                  f"and _a + {size} <= _r._end and _r._perm_bits & 2:")
        self.emit(f"    _p{size}(_r._view, _a - _r.start, "
                  f"{value} & {_SIZE_MASK[size]:#x})")
        self.emit("else:")
        self.emit(f"    _st(_a, {size}, {value})")

    def emit_alu64(self, d, pc: int) -> None:
        dst = f"r{d.dst}"
        op = d.op
        operand = f"r{d.src}" if d.use_reg else f"{d.imm64:#x}"
        if op == isa.ALU_ADD:
            self.emit(f"{dst} = ({dst} + {operand}) & {_H64}")
        elif op == isa.ALU_SUB:
            self.emit(f"{dst} = ({dst} - {operand}) & {_H64}")
        elif op == isa.ALU_MUL:
            self.emit(f"{dst} = ({dst} * {operand}) & {_H64}")
        elif op == isa.ALU_OR:
            self.emit(f"{dst} |= {operand}")
        elif op == isa.ALU_AND:
            self.emit(f"{dst} &= {operand}")
        elif op == isa.ALU_XOR:
            self.emit(f"{dst} ^= {operand}")
        elif op == isa.ALU_MOV:
            self.emit(f"{dst} = {operand}")
        elif op == isa.ALU_NEG:
            self.emit(f"{dst} = (-{dst}) & {_H64}")
        elif op == isa.ALU_LSH:
            self.emit(f"{dst} = ({dst} << {self.shift64(d)}) & {_H64}")
        elif op == isa.ALU_RSH:
            self.emit(f"{dst} >>= {self.shift64(d)}")
        elif op == isa.ALU_ARSH:
            self.emit(f"_x = {dst} - 0x10000000000000000 "
                      f"if {dst} >= 0x8000000000000000 else {dst}")
            self.emit(f"{dst} = (_x >> {self.shift64(d)}) & {_H64}")
        elif op in (isa.ALU_DIV, isa.ALU_MOD):
            sym = "//" if op == isa.ALU_DIV else "%"
            if d.use_reg:
                fault = "_div_fault" if op == isa.ALU_DIV else "_mod_fault"
                self.flush(pc)
                self.emit(f"if not r{d.src}: {fault}({pc})")
                self.emit(f"{dst} = {dst} {sym} r{d.src}")
            else:  # immediate divisor, non-zero by verification
                self.emit(f"{dst} = {dst} {sym} {d.imm64:#x}")
        else:  # pragma: no cover - excluded by verification
            raise IllegalInstructionFault(
                f"cannot transpile ALU op 0x{d.opcode:02x}", pc
            )

    def emit_alu32(self, d, pc: int) -> None:
        dst = f"r{d.dst}"
        op = d.op
        if op == isa.ALU_END:
            if d.opcode == isa.LE:
                self.emit(f"{dst} &= {(1 << d.imm) - 1:#x}")
            else:
                self.emit(f"{dst} = _bswap{d.imm}({dst})")
            return
        operand = (f"(r{d.src} & {_H32})" if d.use_reg
                   else f"{d.imm & _M32:#x}")
        if op == isa.ALU_ADD:
            self.emit(f"{dst} = (({dst} & {_H32}) + {operand}) & {_H32}")
        elif op == isa.ALU_SUB:
            self.emit(f"{dst} = (({dst} & {_H32}) - {operand}) & {_H32}")
        elif op == isa.ALU_MUL:
            self.emit(f"{dst} = (({dst} & {_H32}) * {operand}) & {_H32}")
        elif op == isa.ALU_OR:
            self.emit(f"{dst} = ({dst} & {_H32}) | {operand}")
        elif op == isa.ALU_AND:
            self.emit(f"{dst} = {dst} & {operand}")
        elif op == isa.ALU_XOR:
            self.emit(f"{dst} = ({dst} & {_H32}) ^ {operand}")
        elif op == isa.ALU_MOV:
            self.emit(f"{dst} = {operand}")
        elif op == isa.ALU_NEG:
            self.emit(f"{dst} = (-({dst} & {_H32})) & {_H32}")
        elif op == isa.ALU_LSH:
            self.emit(f"{dst} = (({dst} & {_H32}) << {self.shift32(d)})"
                      f" & {_H32}")
        elif op == isa.ALU_RSH:
            self.emit(f"{dst} = ({dst} & {_H32}) >> {self.shift32(d)}")
        elif op == isa.ALU_ARSH:
            self.emit(f"_x = {dst} & {_H32}")
            self.emit("_x = _x - 0x100000000 if _x >= 0x80000000 else _x")
            self.emit(f"{dst} = (_x >> {self.shift32(d)}) & {_H32}")
        elif op in (isa.ALU_DIV, isa.ALU_MOD):
            sym = "//" if op == isa.ALU_DIV else "%"
            if d.use_reg:
                fault = "_div_fault" if op == isa.ALU_DIV else "_mod_fault"
                self.flush(pc)
                self.emit(f"if not (r{d.src} & {_H32}): {fault}({pc})")
                self.emit(f"{dst} = ({dst} & {_H32}) {sym} "
                          f"(r{d.src} & {_H32})")
            else:
                self.emit(f"{dst} = ({dst} & {_H32}) {sym} "
                          f"{d.imm & _M32:#x}")
        else:  # pragma: no cover - excluded by verification
            raise IllegalInstructionFault(
                f"cannot transpile ALU op 0x{d.opcode:02x}", pc
            )

    @staticmethod
    def shift64(d) -> str:
        return f"(r{d.src} & 63)" if d.use_reg else str(d.imm)

    @staticmethod
    def shift32(d) -> str:
        return f"(r{d.src} & 31)" if d.use_reg else str(d.imm)

    # -- block terminators --------------------------------------------------

    def taken_edge(self, pc: int, target: int, nested: bool) -> None:
        extra = "    " if nested else ""
        self.emit(extra + "_br += 1")
        self.emit(extra + "_stats.branches_taken = _br")
        self.emit(extra + f"if _br > _blimit: _branch_fault(_blimit, {pc})")
        self.goto(target, prefix=extra)

    def emit_branch(self, d, pc: int, self_loop: bool = False) -> None:
        self.count("branch", pc)
        self.flush(pc)
        if d.opcode == isa.JA:
            self.taken_edge(pc, d.target, nested=False)
            return
        wide = d.cls == isa.CLS_JMP
        if wide:
            lhs = f"r{d.dst}"
            rhs = f"r{d.src}" if d.use_reg else f"{d.imm64:#x}"
        else:
            lhs = f"(r{d.dst} & {_H32})"
            rhs = (f"(r{d.src} & {_H32})" if d.use_reg
                   else f"{d.imm & _M32:#x}")
        op = d.op
        if op in _UNSIGNED_CMP:
            cond = f"{lhs} {_UNSIGNED_CMP[op]} {rhs}"
        elif op == isa.JMP_JSET:
            cond = f"{lhs} & {rhs}"
        else:  # signed comparison: reinterpret both operands
            if wide:
                self.emit(f"_x = {lhs} - 0x10000000000000000 "
                          f"if {lhs} >= 0x8000000000000000 else {lhs}")
                if d.use_reg:
                    self.emit(f"_y = {rhs} - 0x10000000000000000 "
                              f"if {rhs} >= 0x8000000000000000 else {rhs}")
                    signed_rhs = "_y"
                else:
                    signed_rhs = str(_s64(d.imm64))
            else:
                self.emit(f"_x = {lhs}")
                self.emit("_x = _x - 0x100000000 if _x >= 0x80000000 else _x")
                if d.use_reg:
                    self.emit(f"_y = {rhs}")
                    self.emit(
                        "_y = _y - 0x100000000 if _y >= 0x80000000 else _y"
                    )
                    signed_rhs = "_y"
                else:
                    signed_rhs = str(_s32(d.imm))
            cond = f"_x {_SIGNED_CMP[op]} {signed_rhs}"
        self.emit(f"if {cond}:")
        if self_loop:
            # Taken edge re-enters the native while; budget still enforced.
            self.emit("    _br += 1")
            self.emit("    _stats.branches_taken = _br")
            self.emit(f"    if _br > _blimit: _branch_fault(_blimit, {pc})")
            self.emit("    continue")
            self.emit("break")
        else:
            self.taken_edge(pc, d.target, nested=True)
            self.goto(pc + 1)


def _build_template(
    program: Program, total_limit: int | None
) -> CompiledTemplate:
    """Transpile and compile one text's template (the cache-miss path).

    The code object is named after the text hash, not the program name:
    the template is shared by every image with this text.
    """
    source = _Codegen(program, total_limit).generate()
    code = compile(source, f"<fc-jit:{program.text_hash[:12]}>", "exec")
    namespace = dict(_JIT_GLOBALS)
    exec(code, namespace)
    return CompiledTemplate(source=source, entry=namespace["_fc_main"])


class CompiledProgram(Interpreter):
    """A Femto-Container whose bytecode was template-compiled at install.

    Exposes the same ``run``/accounting surface as :class:`Interpreter`, so
    the hosting engine can treat interpreted and transpiled containers
    uniformly; the cost tables key on ``implementation = "jit"``.
    """

    implementation = "jit"

    def __init__(
        self,
        program: Program,
        helpers: HelperRegistry | None = None,
        config: VMConfig | None = None,
        access_list: AccessList | None = None,
        verifier_config: VerifierConfig | None = None,
    ) -> None:
        super().__init__(program, helpers, config, access_list)
        # The paper mandates verification before any native translation;
        # the generated code *depends* on the verifier's guarantees.
        # Both the verdict and the compiled template are shared through
        # the process-wide image cache: the template is pure (all per-run
        # state arrives as arguments), so N instances of one text — on
        # one engine or several — reuse a single compiled function while
        # keeping registers, stack, access list and stats fully private.
        self.report = IMAGE_CACHE.verify(program, verifier_config)
        self.template = IMAGE_CACHE.template(
            program, self.config.total_limit, _build_template
        )
        self.jit_source = self.template.source
        self._entry = self.template.entry

    # -- compilation -------------------------------------------------------

    @property
    def install_instruction_count(self) -> int:
        """Slots processed by the one-pass transpiler (install-time cost)."""
        return len(self.program.slots)

    # -- execution -----------------------------------------------------------

    def _dispatch_loop(self, regs: list[int], stats: ExecutionStats) -> int:
        helpers = self.helpers
        vm = self

        def _call(helper_id, pc, r1, r2, r3, r4, r5):
            try:
                return helpers.call(vm, helper_id, r1, r2, r3, r4, r5)
            except VMFault:
                raise
            except Exception as exc:  # contain helper implementation bugs
                raise HelperFault(
                    f"helper 0x{helper_id:02x} failed: {exc}", pc
                ) from exc

        kind_counts = stats.kind_counts
        try:
            return self._entry(
                regs, self.access_list, stats, kind_counts,
                stats.helper_calls, _call, self.config.branch_limit,
            )
        finally:
            stats.executed = sum(kind_counts.values())


def compile_program(
    program: Program,
    helpers: HelperRegistry | None = None,
    config: VMConfig | None = None,
    access_list: AccessList | None = None,
) -> CompiledProgram:
    """Verify then template-compile ``program``; the install-time flow."""
    return CompiledProgram(program, helpers, config, access_list)
