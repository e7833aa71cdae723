"""Per-layer tracing from outside the program.

The tracer wraps public functions at each layer boundary of ``repro``
and accumulates, per boundary, the call count and *self* time: a span's
duration minus the part of it that nested spans cover.  Wrappers are
installed where callers look the function up — a module-level function
is replaced in every ``repro`` module namespace that holds it (so
``from x import f`` call sites are covered, not only ``x.f``), a method
on its class — and removed again between traced blocks, so untraced
blocks run the program exactly as shipped.

A boundary re-entered while it is already open (recursive CBOR encode,
nested kernel runs) is passed straight through, so counts are top-level
calls and the recursion's time stays in the outer span.

Spans are not stored one by one: a traced hook-fire run makes millions
of them.  Counts and self times are summed in memory and reported when
the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: Layer of every boundary, in report order.
LAYERS = ("vm", "core", "runtimes", "suit", "deploy", "net", "rtos")

#: Boundary name -> (module, attribute path).  ``Class.method`` paths
#: wrap the method on that class; plain names wrap a module function.
BOUNDARIES = {
    "vm.run": [
        ("repro.vm.interpreter", "Interpreter.run"),
        ("repro.runtimes.wasm.container", "WasmContainerVM.run"),
        ("repro.runtimes.script.container", "ScriptContainerVM.run"),
    ],
    "vm.verify": [("repro.vm.verifier", "verify")],
    "vm.jit_compile": [("repro.vm.imagecache", "ImageCache.template")],
    "core.fire_hook": [("repro.core.engine", "HostingEngine.fire_hook")],
    "core.execute": [("repro.core.engine", "HostingEngine.execute")],
    "core.attach": [("repro.core.engine", "HostingEngine.attach")],
    "core.engine_init": [("repro.core.engine", "HostingEngine.__init__")],
    "runtimes.attach.rbpf": [
        ("repro.runtimes.rbpf", "RbpfContainerRuntime.attach")],
    "runtimes.attach.wasm": [
        ("repro.runtimes.wasm.container", "WasmContainerRuntime.attach")],
    "runtimes.attach.script": [
        ("repro.runtimes.script.container",
         "ScriptContainerRuntime.attach")],
    "suit.cbor_encode": [("repro.suit.cbor", "encode")],
    "suit.cbor_decode": [("repro.suit.cbor", "decode")],
    "suit.cose_verify": [("repro.suit.cose", "CoseSign1.verify")],
    "suit.ed25519_verify": [("repro.suit.ed25519", "verify")],
    "suit.ed25519_sign": [("repro.suit.ed25519", "sign")],
    "suit.storage_install": [
        ("repro.suit.storage", "StorageRegistry.install")],
    "deploy.plan": [("repro.deploy.plan", "plan")],
    "deploy.apply": [("repro.deploy.plan", "apply")],
    "deploy.publish": [("repro.deploy.publish", "FleetPublisher.publish")],
    "net.link.transmit": [("repro.net.link", "Link.transmit")],
    "net.get_blockwise": [("repro.net.gcoap", "CoapClient.get_blockwise")],
    "net.udp_deliver": [("repro.net.udp", "UdpSocket.deliver")],
    "net.coap_encode": [("repro.net.coap", "CoapMessage.encode")],
    "net.coap_decode": [("repro.net.coap", "CoapMessage.decode")],
    "rtos.kernel_run": [
        ("repro.rtos.kernel", "Kernel.run"),
        ("repro.rtos.kernel", "Kernel.run_until_idle"),
    ],
    "rtos.nvm_write": [("repro.rtos.nvm", "NvmStore.write")],
    "rtos.nvm_read": [("repro.rtos.nvm", "NvmStore.read")],
}


def _size(value) -> int:
    return len(value) if isinstance(value, (bytes, bytearray)) else 0


#: Boundary -> (counter name, f(args, result) -> amount) for the work
#: counts recorded beside call counts.
COUNTERS = {
    "vm.run": ("vm.run.insns",
               lambda args, result: getattr(result.stats, "executed", 0)),
    "suit.cbor_encode": ("suit.cbor_encode.bytes",
                         lambda args, result: _size(result)),
    "suit.cbor_decode": ("suit.cbor_decode.bytes",
                         lambda args, result: _size(args[0])),
    "deploy.plan": ("deploy.plan.actions",
                    lambda args, result: len(result.actions)),
    "rtos.nvm_write": ("rtos.nvm_write.bytes",
                       lambda args, result: _size(args[2])),
    "rtos.nvm_read": ("rtos.nvm_read.bytes",
                      lambda args, result: _size(result)),
}


class Tracer:
    """Boundary wrappers plus the accumulated per-boundary totals."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        #: Wall time and count of the traced operations (the timer
        #: that runs them adds to these).
        self.wall_ns = 0
        self.ops = 0
        #: Summed duration of the outermost spans (opened with no span
        #: open), measured apart from the self times.
        self.outer_ns = 0
        # Open spans, each [ns covered by its child spans].
        self._stack: list[list] = []
        self._open: dict[str, int] = defaultdict(int)
        self._sites: list[tuple[object, str, object, object]] = []
        for name, targets in BOUNDARIES.items():
            for module_name, path in targets:
                self._plan_sites(name, module_name, path)

    # -- wiring ---------------------------------------------------------------

    def _plan_sites(self, name: str, module_name: str, path: str) -> None:
        __import__(module_name)
        module = sys.modules[module_name]
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            if name == "vm.jit_compile":
                wrapper = self._wrap_template(original)
            elif isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(name, original.__func__))
            else:
                wrapper = self._wrap(name, original)
            self._sites.append((owner, attr, original, wrapper))
            return
        original = getattr(module, path)
        wrapper = self._wrap(name, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._sites.append((loaded, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._sites:
            setattr(owner, attr, original)

    def _wrap(self, name: str, function):
        stack = self._stack
        open_spans = self._open
        calls = self.calls
        self_ns = self.self_ns
        counter = COUNTERS.get(name)
        counters = self.counters
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if open_spans[name]:
                return function(*args, **kwargs)
            open_spans[name] = 1
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_spans[name] = 0
                calls[name] += 1
                self_ns[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.outer_ns += elapsed
            if counter is not None:
                counters[counter[0]] += counter[1](args, result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def _wrap_template(self, method):
        """Span only the template *build* (the cache-miss compile): the
        hit path is a dictionary lookup that stays with its caller."""
        wrap = self._wrap

        def template(cache, program, total_limit, build):
            return method(cache, program, total_limit,
                          wrap("vm.jit_compile", build))

        template.__wrapped__ = method
        return template

    # -- report ---------------------------------------------------------------

    def table(self) -> dict[str, float]:
        """Per-boundary calls / self_s / share, layer totals and
        ``other`` (traced wall no span covers)."""
        wall = self.wall_ns or 1
        metrics: dict[str, float] = {}
        layer_ns = dict.fromkeys(LAYERS, 0)
        covered = 0
        for name in BOUNDARIES:
            spent = self.self_ns.get(name, 0)
            covered += spent
            layer_ns[name.split(".")[0]] += spent
            metrics[f"{name}.calls"] = self.calls.get(name, 0)
            metrics[f"{name}.self_s"] = spent / 1e9
            metrics[f"{name}.share"] = spent / wall
        for layer, spent in layer_ns.items():
            metrics[f"{layer}.self_s"] = spent / 1e9
            metrics[f"{layer}.share"] = spent / wall
        for _boundary, (counter, _fn) in COUNTERS.items():
            metrics[counter] = self.counters.get(counter, 0)
        metrics["other.self_s"] = (self.wall_ns - covered) / 1e9
        metrics["other.share"] = (self.wall_ns - covered) / wall
        metrics["traced_wall_s"] = self.wall_ns / 1e9
        return metrics
