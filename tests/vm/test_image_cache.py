"""The shared program-image cache: hashing, sharing, isolation, bounds."""

from __future__ import annotations

import pytest

from repro.core import HostingEngine
from repro.deploy import ImageSpec
from repro.rtos import Kernel, nrf52840
from repro.vm import (
    ImageCache,
    Interpreter,
    Program,
    VerificationError,
    VerifierConfig,
    VMConfig,
    assemble,
    compile_program,
)
from repro.vm.imagecache import IMAGE_CACHE

LOOPY = """
    mov r0, 0
    mov r1, 0
loop:
    add r0, 3
    add r1, 1
    jlt r1, 10, loop
    exit
"""

CALLER = """
    mov r1, 1
    mov r2, 2
    call 0x01
    exit
"""

#: Returns the first byte of the image's own .rodata.
READ_RODATA = """
    lddwr r1, 0
    ldxb r0, [r1]
    exit
"""


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test starts and ends with a cold process-wide cache."""
    IMAGE_CACHE.clear()
    yield
    IMAGE_CACHE.clear()


class TestImageHash:
    def test_same_bytes_same_hash(self):
        a = assemble(LOOPY)
        b = Program.from_bytes(a.to_bytes(), name="different-name")
        assert a.image_hash == b.image_hash  # name excluded: content only

    def test_different_text_different_hash(self):
        assert assemble(LOOPY).image_hash != assemble(CALLER).image_hash

    def test_data_sections_are_hashed_unambiguously(self):
        raw = assemble(LOOPY).to_bytes()
        a = Program.from_bytes(raw, rodata=b"ab", data=b"")
        b = Program.from_bytes(raw, rodata=b"a", data=b"b")
        c = Program.from_bytes(raw, rodata=b"ab", data=b"")
        assert a.image_hash != b.image_hash  # section boundary matters
        assert a.image_hash == c.image_hash

    def test_hash_cache_invalidated_on_slot_replacement(self):
        program = assemble(LOOPY)
        first = program.image_hash
        program.slots = assemble(CALLER).slots
        assert program.image_hash != first

    def test_hash_cache_invalidated_on_data_section_reassignment(self):
        program = assemble(LOOPY)
        first = program.image_hash
        program.data = b"\x01\x02"
        second = program.image_hash
        assert second != first
        program.rodata = b"ro"
        assert program.image_hash != second


    def test_text_hash_ignores_data_sections(self):
        raw = assemble(LOOPY).to_bytes()
        a = Program.from_bytes(raw, rodata=b"one")
        b = Program.from_bytes(raw, rodata=b"two", data=b"x")
        assert a.text_hash == b.text_hash
        assert a.image_hash != b.image_hash
        assert a.text_hash != assemble(CALLER).text_hash

    def test_text_hash_cache_invalidated_on_slot_replacement(self):
        program = assemble(LOOPY)
        first = program.text_hash
        program.rodata = b"ro"
        assert program.text_hash == first
        program.slots = assemble(CALLER).slots
        assert program.text_hash != first

    def test_instances_are_seeded_with_both_hashes(self, monkeypatch):
        spec = ImageSpec.from_program(assemble(LOOPY), name="app")
        expected = (spec.image_hash, assemble(LOOPY).text_hash)

        def no_encode(self):
            raise AssertionError("an instance re-encoded its text to hash")

        monkeypatch.setattr(Program, "to_bytes", no_encode)
        program = spec.instantiate("i0")
        assert (program.image_hash, program.text_hash) == expected


class TestSharedArtifacts:
    def test_decoded_shared_across_program_objects(self):
        raw = assemble(LOOPY).to_bytes()
        a, b = Program.from_bytes(raw), Program.from_bytes(raw)
        assert a.decoded is b.decoded

    def test_jit_template_shared_across_instances(self):
        raw = assemble(LOOPY).to_bytes()
        one = compile_program(Program.from_bytes(raw))
        two = compile_program(Program.from_bytes(raw))
        assert one._entry is two._entry
        assert one.jit_source == two.jit_source
        # ...but all run state is private: both execute independently
        # with bit-identical observable results.
        r1, r2 = one.run(), two.run()
        assert (r1.value, r1.stats.kind_counts) == (r2.value,
                                                    r2.stats.kind_counts)

    def test_total_limit_keys_separate_templates(self):
        raw = assemble(LOOPY).to_bytes()
        plain = compile_program(Program.from_bytes(raw))
        budgeted = compile_program(Program.from_bytes(raw),
                                   config=VMConfig(total_limit=1000))
        assert plain._entry is not budgeted._entry

    def test_verify_cache_respects_helper_grants(self):
        """A cached permissive verdict must never leak to a stricter
        contract: the VerifierConfig is part of the cache key."""
        program = assemble(CALLER)
        IMAGE_CACHE.verify(program, VerifierConfig())  # permissive, cached
        with pytest.raises(VerificationError):
            IMAGE_CACHE.verify(
                program, VerifierConfig(allowed_helpers=frozenset())
            )

    def test_rejections_are_not_cached(self):
        program = assemble(CALLER)
        strict = VerifierConfig(allowed_helpers=frozenset())
        for _ in range(2):  # both attempts re-verify and re-raise
            with pytest.raises(VerificationError):
                IMAGE_CACHE.verify(program, strict)
        assert IMAGE_CACHE.stats()["report_entries"] == 0

    def test_mutable_helper_set_is_coerced_hashable(self):
        config = VerifierConfig(allowed_helpers={1, 2, 3})
        assert isinstance(config.allowed_helpers, frozenset)
        hash(config)  # must be usable as a cache key


    def test_same_text_different_rodata_shares_one_template(self):
        raw = assemble(READ_RODATA, rodata=bytes(8)).to_bytes()
        images = [Program.from_bytes(raw, rodata=bytes([value]) * 8)
                  for value in (0x11, 0x22)]
        vms = [compile_program(program) for program in images]
        assert vms[0]._entry is vms[1]._entry
        assert images[0].decoded is images[1].decoded
        assert IMAGE_CACHE.stats()["template_entries"] == 1
        # ...yet each instance maps and reads its *own* rodata.
        for program, vm, value in zip(images, vms, (0x11, 0x22)):
            result = vm.run()
            reference = Interpreter(program).run()
            assert result.value == reference.value == value
            assert result.stats.kind_counts == reference.stats.kind_counts

    def test_template_code_is_named_after_the_text(self):
        program = assemble(LOOPY, name="first")
        vm = compile_program(program)
        assert vm._entry.__code__.co_filename == (
            f"<fc-jit:{program.text_hash[:12]}>")

    def test_rodata_verdict_never_leaks_across_section_lengths(self):
        raw = assemble("lddwr r1, 8\n    exit", rodata=bytes(16)).to_bytes()
        report = IMAGE_CACHE.verify(Program.from_bytes(raw, rodata=bytes(16)))
        assert IMAGE_CACHE.stats()["report_entries"] == 1
        # Same text, same length, other bytes: the verdict is shared.
        assert IMAGE_CACHE.verify(
            Program.from_bytes(raw, rodata=b"\x01" * 16)) is report
        with pytest.raises(VerificationError, match="rodata"):
            IMAGE_CACHE.verify(Program.from_bytes(raw, rodata=bytes(4)))

    def test_data_verdict_never_leaks_across_section_lengths(self):
        raw = assemble("lddwd r1, 8\n    exit", data=bytes(16)).to_bytes()
        report = IMAGE_CACHE.verify(Program.from_bytes(raw, data=bytes(16)))
        assert IMAGE_CACHE.stats()["report_entries"] == 1
        assert IMAGE_CACHE.verify(
            Program.from_bytes(raw, data=b"\x01" * 16)) is report
        with pytest.raises(VerificationError, match="data"):
            IMAGE_CACHE.verify(Program.from_bytes(raw, data=bytes(4)))


class TestBoundsAndMaintenance:
    def test_lru_bound_is_respected(self):
        cache = ImageCache(max_entries=4)
        for value in range(10):
            program = assemble(f"mov r0, {value}\n    exit")
            cache.decoded(program)
        assert len(cache._decoded) == 4

    def test_invalidate_drops_all_artifacts_of_one_image(self):
        program = assemble(LOOPY)
        compile_program(program)
        IMAGE_CACHE.verify(program)
        IMAGE_CACHE.invalidate(program.image_hash)
        stats = IMAGE_CACHE.stats()
        assert stats["template_entries"] == 0
        assert stats["report_entries"] == 0

    def test_invalidate_drops_text_artifacts_shared_with_another_image(self):
        raw = assemble(LOOPY).to_bytes()
        first = Program.from_bytes(raw, rodata=b"v1")
        second = Program.from_bytes(raw, rodata=b"v2")
        compile_program(first)
        compile_program(second)
        IMAGE_CACHE.invalidate(second.image_hash)
        stats = IMAGE_CACHE.stats()
        assert stats["decoded_entries"] == 0
        assert stats["template_entries"] == 0
        assert stats["report_entries"] == 0

    def test_hit_miss_accounting(self):
        raw = assemble(LOOPY).to_bytes()
        compile_program(Program.from_bytes(raw))
        baseline = IMAGE_CACHE.stats()
        compile_program(Program.from_bytes(raw))
        after = IMAGE_CACHE.stats()
        assert after["misses"] == baseline["misses"]  # no new misses
        assert after["hits"] > baseline["hits"]


class TestVirtualClockOblivious:
    def test_attach_charges_same_cycles_cold_and_cached(self):
        """The cache is a wall-clock optimization only: every attach of
        the same image charges the identical modelled verify+install
        cost, cold or cached."""
        raw = assemble(LOOPY).to_bytes()
        for implementation in ("femto-containers", "jit"):
            IMAGE_CACHE.clear()
            engine = HostingEngine(Kernel(nrf52840()),
                                   implementation=implementation)
            charges = []
            for index in range(3):
                container = engine.load(Program.from_bytes(raw),
                                        name=f"i{index}")
                before = engine.kernel.clock.cycles
                engine.attach(container, "fc.hook.timer")
                charges.append(engine.kernel.clock.cycles - before)
            assert len(set(charges)) == 1, (implementation, charges)

    def test_same_text_images_charge_same_cycles_cold_and_cached(self):
        """Three images sharing one text (different rodata) charge the
        same verify+install cycles whether their text-keyed artifacts
        are cold or cached."""
        raw = assemble(READ_RODATA, rodata=bytes(8)).to_bytes()
        for implementation in ("femto-containers", "jit"):
            IMAGE_CACHE.clear()
            charges = []
            for _pass in ("cold", "cached"):
                engine = HostingEngine(Kernel(nrf52840()),
                                       implementation=implementation)
                for value in (1, 2, 3):
                    program = Program.from_bytes(raw,
                                                 rodata=bytes([value]) * 8)
                    container = engine.load(program, name=f"i{value}")
                    before = engine.kernel.clock.cycles
                    engine.attach(container, "fc.hook.timer")
                    charges.append(engine.kernel.clock.cycles - before)
            assert len(set(charges)) == 1, (implementation, charges)

    def test_shared_instances_keep_private_state(self):
        raw = assemble(LOOPY).to_bytes()
        one = compile_program(Program.from_bytes(raw))
        two = compile_program(Program.from_bytes(raw))
        assert one.access_list is not two.access_list
        assert one._regs is not two._regs
        assert one.stack is not two.stack
        reference = Interpreter(Program.from_bytes(raw)).run()
        for vm in (one, two):
            result = vm.run()
            assert result.value == reference.value
            assert result.stats.kind_counts == reference.stats.kind_counts
