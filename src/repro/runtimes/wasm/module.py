"""Module representation and binary encoding for the mini-wasm VM.

The binary format mirrors real WebAssembly's shape (magic, sections, LEB128
immediates) so that measured code sizes are representative; it is not
byte-compatible with the official spec (we only encode what the VM
implements).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtimes.wasm import isa

MAGIC = b"\x00mwa"
VERSION = 1

#: WebAssembly's fixed page size; the spec floor the paper blames for
#: WASM3's RAM footprint ("the minimum required page size of 64 KiB").
PAGE_SIZE = 65536


class WasmError(Exception):
    """Malformed module or text."""


def encode_varint(value: int) -> bytes:
    """Signed LEB128."""
    out = bytearray()
    more = True
    while more:
        byte = value & 0x7F
        value >>= 7
        if (value == 0 and not byte & 0x40) or (value == -1 and byte & 0x40):
            more = False
        else:
            byte |= 0x80
        out.append(byte)
    return bytes(out)


def decode_varint(raw: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(raw):
            raise WasmError("truncated varint")
        byte = raw[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            if byte & 0x40:
                result -= 1 << shift
            return result, pos


@dataclass(frozen=True)
class Function:
    """One function: parameter/local counts and a flat instruction list."""

    name: str
    n_params: int
    n_locals: int
    #: list of (opcode, immediate) — immediate is 0 for no-immediate ops.
    body: list[tuple[int, int]] = field(default_factory=list)

    @property
    def frame_slots(self) -> int:
        return self.n_params + self.n_locals


@dataclass(frozen=True)
class Module:
    """A loadable mini-wasm module.

    Frozen: one decoded module is shared by every container instance of
    its image (see :meth:`repro.deploy.spec.ImageSpec.instantiate`).  Its
    validation and resolved control tables are computed at the first
    instantiation and kept on the module; each
    :class:`~repro.runtimes.wasm.interpreter.WasmInstance` keeps its own
    linear memory.
    """

    functions: list[Function] = field(default_factory=list)
    memory_pages: int = 1
    start: int = 0  # index of the entry function

    def function_index(self, name: str) -> int:
        for index, function in enumerate(self.functions):
            if function.name == name:
                return index
        raise WasmError(f"no function named {name!r}")

    # -- binary codec ------------------------------------------------------

    def encode(self) -> bytes:
        out = bytearray(MAGIC)
        out += encode_varint(VERSION)
        out += encode_varint(self.memory_pages)
        out += encode_varint(self.start)
        out += encode_varint(len(self.functions))
        for function in self.functions:
            out += encode_varint(function.n_params)
            out += encode_varint(function.n_locals)
            body = bytearray()
            for opcode, immediate in function.body:
                body.append(opcode)
                if opcode in isa.WITH_IMMEDIATE:
                    body += encode_varint(immediate)
            out += encode_varint(len(body))
            out += body
        return bytes(out)

    @classmethod
    def decode(cls, raw: bytes) -> "Module":
        if raw[: len(MAGIC)] != MAGIC:
            raise WasmError("bad module magic")
        pos = len(MAGIC)
        version, pos = decode_varint(raw, pos)
        if version != VERSION:
            raise WasmError(f"unsupported module version {version}")
        pages, pos = decode_varint(raw, pos)
        start, pos = decode_varint(raw, pos)
        count, pos = decode_varint(raw, pos)
        functions: list[Function] = []
        for index in range(count):
            n_params, pos = decode_varint(raw, pos)
            n_locals, pos = decode_varint(raw, pos)
            body_len, pos = decode_varint(raw, pos)
            end = pos + body_len
            if end > len(raw):
                raise WasmError("truncated function body")
            body: list[tuple[int, int]] = []
            while pos < end:
                opcode = raw[pos]
                pos += 1
                if opcode not in isa.NAMES:
                    raise WasmError(f"unknown opcode 0x{opcode:02x}")
                immediate = 0
                if opcode in isa.WITH_IMMEDIATE:
                    immediate, pos = decode_varint(raw, pos)
                body.append((opcode, immediate))
            functions.append(
                Function(name=f"f{index}", n_params=n_params,
                         n_locals=n_locals, body=body)
            )
        return cls(functions=functions, memory_pages=pages, start=start)

    @property
    def code_size(self) -> int:
        """Encoded module size — the Table 2 'code size' metric."""
        return len(self.encode())
