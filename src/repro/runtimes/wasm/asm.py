"""Line-based text assembler for the mini-wasm VM ("wat-lite").

Syntax::

    module pages=1
    func main params=1 locals=6
        local.get 0
        i32.const 1
        i32.add
        return
    end

Branch immediates are structural depths, as in real WebAssembly:
``br 0`` targets the innermost block/loop.
"""

from __future__ import annotations

from repro.runtimes.wasm import isa
from repro.runtimes.wasm.module import Function, Module, WasmError


def assemble(source: str) -> Module:
    functions: list[Function] = []
    memory_pages = 1
    current: Function | None = None
    depth = 0
    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split(";")[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]

        if head == "module":
            for option in parts[1:]:
                key, _, value = option.partition("=")
                if key == "pages":
                    memory_pages = int(value)
                else:
                    raise WasmError(f"line {line_no}: unknown option {key!r}")
            continue
        if head == "func":
            if current is not None:
                raise WasmError(f"line {line_no}: nested func")
            name = parts[1]
            n_params = n_locals = 0
            for option in parts[2:]:
                key, _, value = option.partition("=")
                if key == "params":
                    n_params = int(value)
                elif key == "locals":
                    n_locals = int(value)
                else:
                    raise WasmError(f"line {line_no}: unknown option {key!r}")
            current = Function(name=name, n_params=n_params, n_locals=n_locals)
            depth = 0
            continue
        if head == "end" and current is not None and depth == 0 and len(parts) == 1:
            functions.append(current)
            current = None
            continue
        if current is None:
            raise WasmError(f"line {line_no}: instruction outside func")

        opcode = isa.OPCODES.get(head)
        if opcode is None:
            raise WasmError(f"line {line_no}: unknown instruction {head!r}")
        if opcode in (isa.BLOCK, isa.LOOP, isa.IF):
            depth += 1
        elif opcode == isa.END:
            if depth == 0:
                raise WasmError(f"line {line_no}: unbalanced end")
            depth -= 1
        immediate = 0
        if opcode in isa.WITH_IMMEDIATE:
            if len(parts) != 2:
                raise WasmError(f"line {line_no}: {head} needs an immediate")
            immediate = int(parts[1], 0)
        elif len(parts) != 1:
            raise WasmError(f"line {line_no}: {head} takes no operand")
        current.body.append((opcode, immediate))
    if current is not None:
        raise WasmError("unterminated func")
    if not functions:
        raise WasmError("module has no functions")
    names = [function.name for function in functions]
    start = names.index("main") if "main" in names else 0
    return Module(functions=functions, memory_pages=memory_pages, start=start)
