"""AST node types for the mini scripting language.

Nodes are frozen: one parsed script is shared by every container
instance of its image (see :meth:`repro.deploy.spec.ImageSpec.instantiate`),
so nothing may rebind a field after the parser builds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class Node:
    """Base class; every node knows its source line for error messages."""

    line: int = 0


@dataclass(frozen=True)
class Literal(Node):
    value: object
    line: int = 0


@dataclass(frozen=True)
class Name(Node):
    identifier: str
    line: int = 0


@dataclass(frozen=True)
class Unary(Node):
    operator: str
    operand: Node
    line: int = 0


@dataclass(frozen=True)
class Binary(Node):
    operator: str
    left: Node
    right: Node
    line: int = 0


@dataclass(frozen=True)
class Index(Node):
    subject: Node
    index: Node
    line: int = 0


@dataclass(frozen=True)
class Call(Node):
    callee: str
    arguments: list[Node] = field(default_factory=list)
    line: int = 0


@dataclass(frozen=True)
class VarDecl(Node):
    name: str
    initializer: Node | None = None
    line: int = 0


@dataclass(frozen=True)
class Assign(Node):
    name: str
    value: Node
    line: int = 0


@dataclass(frozen=True)
class If(Node):
    condition: Node
    then_body: list[Node] = field(default_factory=list)
    else_body: list[Node] = field(default_factory=list)
    line: int = 0


@dataclass(frozen=True)
class While(Node):
    condition: Node
    body: list[Node] = field(default_factory=list)
    line: int = 0


@dataclass(frozen=True)
class FuncDecl(Node):
    name: str
    parameters: list[str] = field(default_factory=list)
    body: list[Node] = field(default_factory=list)
    line: int = 0


@dataclass(frozen=True)
class Return(Node):
    value: Node | None = None
    line: int = 0


@dataclass(frozen=True)
class ExprStatement(Node):
    expression: Node = None  # type: ignore[assignment]
    line: int = 0


@dataclass(frozen=True)
class Script(Node):
    """A whole program: a statement list."""

    body: list[Node] = field(default_factory=list)
    #: Token count, kept for the startup (parse) cost model.
    token_count: int = 0
    source_bytes: int = 0
