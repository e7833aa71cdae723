"""Process-wide program-image cache: share verify/JIT work across instances.

The paper charges verification and §11 transpilation once per *attach*,
and that stays true for the **virtual clock** — the hosting engine keeps
charging the full per-slot verify cost (plus the per-slot JIT install
cost) on every attach, exactly as the evaluation models it.  What this
module changes is the **wall-clock** story of the simulator itself: under
the north-star workload, many tenants attach many instances of the *same*
application image, and rBPF / TinyContainer both treat that image as the
immutable unit of deployment.  Immutability is what makes the expensive
install-time artifacts shareable, and each artifact is keyed on exactly
the content it depends on, so a release that only changes an image's
constants translates nothing again:

* the **pre-decoded slot table** (:mod:`repro.vm.predecode`) depends only
  on the text: ``lddwr``/``lddwd`` are relocated against the constant
  ``RODATA_BASE``/``DATA_BASE`` and the section bytes are never read.
  Key: :attr:`~repro.vm.program.Program.text_hash`;
* the JIT's compiled ``_fc_main`` **template** is generated from the
  slot table alone, plus the ``total_limit`` budget baked into the code.
  Key: ``(text_hash, total_limit)``.  The template itself is pure: all
  per-run state (registers, memory access list, stats, helper
  trampoline, branch budget) is passed in as arguments, so one compiled
  function object can serve every container instance — and every
  hosting engine — on the board, whatever data sections it maps;
* a **verification verdict** depends on the text, on the *lengths* of
  the data sections (the verifier bounds-checks ``lddwr``/``lddwd``
  immediates against them, so a verdict must never be shared between a
  text with 16 B of ``.rodata`` and the same text with 4 B) and on the
  :class:`~repro.vm.verifier.VerifierConfig` it ran under (different
  contracts can grant different helper sets — a container must never
  inherit a more permissive verdict than its own contract allows).
  Key: ``(text_hash, len(rodata), len(data), config)``;
* a **decoded non-rBPF image** (a parsed script, a decoded Wasm module)
  depends on the whole runtime-tagged image bytes, so an image decodes
  once per content and its instances share it (see
  :meth:`~repro.deploy.spec.ImageSpec.instantiate`).
  Key: :attr:`~repro.vm.program.Program.image_hash`.

Keys are content hashes, so there is nothing to invalidate on hot
replace: a new program version hashes to a new key, and stale artifacts
simply age out of the bounded LRU.  ``invalidate``/``clear`` exist for
tooling and benchmarks that need a cold cache on demand; the cache
remembers which text each recent image used, so ``invalidate`` of an
image hash also drops the text-keyed artifacts it shares.

The cache is deliberately **not** part of the modelled device: it holds
host-side Python objects, never touches the virtual clock, and the
differential tests assert that executions through shared artifacts stay
bit-identical to cold-built ones.  The simulator is single-threaded per
process, so plain dicts suffice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

from repro.vm.predecode import Decoded, predecode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vm.program import Program
    from repro.vm.verifier import VerificationReport, VerifierConfig

_MISS = object()


@dataclass
class CompiledTemplate:
    """One text's shared JIT artifact (see :mod:`repro.vm.jit`).

    Keyed on ``(text_hash, total_limit)``: the generated code reads only
    the pre-decoded slot table, never the data sections, so every image
    with the same text shares one template.  ``entry`` is the compiled
    ``_fc_main`` function; it closes over nothing per-instance and may be
    shared freely.  ``source`` is kept for introspection
    (``CompiledProgram.jit_source``).
    """

    source: str
    entry: Callable


class ImageCache:
    """Bounded LRU cache of install artifacts, keyed by content hash."""

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self._decoded: dict[str, list[Decoded]] = {}
        self._reports: dict[
            tuple[str, int, int, "VerifierConfig"], "VerificationReport"
        ] = {}
        self._templates: dict[tuple[str, int | None], CompiledTemplate] = {}
        self._images: dict[str, object] = {}
        #: image hash -> text hash of recently seen images, so
        #: :meth:`invalidate` can find an image's text-keyed artifacts.
        self._texts: dict[str, str] = {}
        self.hits = 0
        self.misses = 0

    # -- generic bounded-LRU plumbing --------------------------------------

    def _get(self, table: dict, key) -> Any:
        value = table.pop(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return _MISS
        table[key] = value  # reinsert: dict order doubles as LRU order
        self.hits += 1
        return value

    def _put(self, table: dict, key, value) -> None:
        table[key] = value
        while len(table) > self.max_entries:
            table.pop(next(iter(table)))

    def _text_key(self, program: "Program") -> str:
        """``program.text_hash``, remembering which image used it.

        The image hash covers the text, so the map doubles as a memo:
        an image seen before costs one lookup.
        """
        image_hash = program.image_hash
        text_hash = self._texts.get(image_hash)
        if text_hash is None:
            text_hash = program.text_hash
            self._put(self._texts, image_hash, text_hash)
        return text_hash

    # -- the shared artifacts ----------------------------------------------

    def decoded(self, program: "Program") -> list[Decoded]:
        """Pre-decoded slot table, computed once per *text*."""
        key = self._text_key(program)
        value = self._get(self._decoded, key)
        if value is _MISS:
            value = predecode(program.slots)
            self._put(self._decoded, key, value)
        return value

    def verify(
        self, program: "Program", config: "VerifierConfig | None" = None
    ) -> "VerificationReport":
        """Pre-flight check through the cache.

        The returned :class:`VerificationReport` is shared between all
        images with the same text, section lengths and config, and must
        be treated as immutable.  Only successful verdicts are cached: a
        rejected image re-raises its :class:`VerificationError` on every
        attempt (rejections are cold paths and caching them would pin
        attacker-controlled keys).
        """
        # Lazy import: program.py imports this module at load time, and
        # verifier.py imports program.py — resolving verify() here keeps
        # the module graph acyclic.
        from repro.vm.verifier import VerifierConfig, verify

        if config is None:
            config = VerifierConfig()
        key = (self._text_key(program), len(program.rodata),
               len(program.data), config)
        report = self._get(self._reports, key)
        if report is _MISS:
            report = verify(program, config)
            self._put(self._reports, key, report)
        return report

    def template(
        self,
        program: "Program",
        total_limit: int | None,
        build: Callable[["Program", int | None], CompiledTemplate],
    ) -> CompiledTemplate:
        """Shared JIT template for one (text, total-budget) pair.

        ``build`` is only invoked on a miss.  Callers must have verified
        the image first (the generated code relies on the verifier's
        guarantees); :class:`~repro.vm.jit.CompiledProgram` enforces that
        ordering.
        """
        key = (self._text_key(program), total_limit)
        template = self._get(self._templates, key)
        if template is _MISS:
            template = build(program, total_limit)
            self._put(self._templates, key, template)
        return template

    def image(self, image_hash: str, decode: Callable[[], object]) -> object:
        """Decoded non-rBPF image for one runtime-tagged content hash.

        ``decode`` is only invoked on a miss.  The image is shared by
        every instance of that content and must be treated as
        immutable.  As with :meth:`verify`, only successes are cached: a
        payload that fails to decode re-raises on every attempt.
        """
        image = self._get(self._images, image_hash)
        if image is _MISS:
            image = decode()
            self._put(self._images, image_hash, image)
        return image

    # -- maintenance --------------------------------------------------------

    def invalidate(self, image_hash: str) -> None:
        """Drop every artifact one image used (tooling hook).

        Text-keyed artifacts go too, even when another image with the
        same text shares them (they rebuild on next use).
        """
        self._images.pop(image_hash, None)
        text_hash = self._texts.pop(image_hash, None)
        if text_hash is None:
            return
        self._decoded.pop(text_hash, None)
        for table in (self._reports, self._templates):
            for key in [k for k in table if k[0] == text_hash]:
                del table[key]

    def clear(self) -> None:
        self._texts.clear()
        self._decoded.clear()
        self._reports.clear()
        self._templates.clear()
        self._images.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "decoded_entries": len(self._decoded),
            "report_entries": len(self._reports),
            "template_entries": len(self._templates),
            "image_entries": len(self._images),
        }


#: The process-wide cache: one per board-simulating process, shared by
#: every hosting engine (images are content-addressed, so sharing across
#: engines is safe by construction).
IMAGE_CACHE = ImageCache()
