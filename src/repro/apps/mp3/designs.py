"""Platform designs of the MP3 case study (SW, SW+1, SW+2, SW+4).

Builds the :class:`~repro.tlm.platform.Design` objects that both the TLM
generator and the PCAM co-simulation consume, plus helpers for the SW-only
paths (ISS image compilation) used by Table 2.
"""

from __future__ import annotations

from ...isa.compiler import compile_program
from ...pum.library import filtercore_hw, imdct_hw, microblaze
from ...tlm.generator import compile_process
from ...tlm.platform import Design
from .params import Mp3Params
from .source import CHANNEL_IDS, VARIANT_MAPPINGS, build_sources

VARIANTS = ("SW", "SW+1", "SW+2", "SW+4")

#: Stack large enough for the decoder's frames plus headroom.
MP3_STACK_WORDS = 1 << 15


def build_pums(variant, icache_size=8 * 1024, dcache_size=4 * 1024,
               memory_model=None, branch_model=None):
    """``{pe name: PUM}`` for one MP3 design variant.

    The CPU is a MicroBlaze with the given cache configuration and
    (optionally calibrated) statistical models; each offloaded unit gets
    its custom-HW PUM.
    """
    pums = {"cpu": microblaze(
        icache_size, dcache_size,
        memory_model=memory_model, branch_model=branch_model,
    )}
    for unit in sorted(VARIANT_MAPPINGS[variant]):
        pums["hw_%s" % unit] = (
            filtercore_hw() if unit.startswith("filter") else imdct_hw()
        )
    return pums


def build_design(variant, params=None, n_frames=4, seed=1,
                 icache_size=8 * 1024, dcache_size=4 * 1024,
                 memory_model=None, branch_model=None, sources=None,
                 pums=None):
    """Build one MP3 design variant.

    Args:
        variant: ``"SW"``, ``"SW+1"``, ``"SW+2"`` or ``"SW+4"``.
        params: decoder dimensions (default :class:`Mp3Params`).
        n_frames: frames to decode.
        seed: workload seed (use different seeds for training/evaluation).
        icache_size/dcache_size: CPU cache configuration in bytes.
        memory_model/branch_model: calibrated statistical models for the CPU
            PUM (``None`` = library defaults).
        sources: a prebuilt :func:`build_sources` result for this variant
            (skips source generation — large product spaces build sources
            once per variant and assemble thousands of designs from them).
        pums: prebuilt PUMs keyed by PE name, as :func:`build_pums` returns
            them for this variant (skips PUM construction; PUMs are
            immutable, so product spaces share them across designs).

    Returns:
        ``(design, frames)``.
    """
    params = params or Mp3Params()
    cpu_src, hw_srcs, frames = (
        sources if sources is not None
        else build_sources(variant, params, n_frames, seed)
    )
    if pums is None:
        pums = build_pums(variant, icache_size, dcache_size,
                          memory_model=memory_model,
                          branch_model=branch_model)
    design = Design("MP3-%s-i%d-d%d" % (variant, icache_size, dcache_size))
    design.add_pe("cpu", pums["cpu"])
    design.add_process("decoder", cpu_src, "main", "cpu")
    if hw_srcs:
        design.add_bus("sysbus", words_per_cycle=1, arbitration_cycles=2)
        for unit, src in hw_srcs.items():
            pe_name = "hw_%s" % unit
            design.add_pe(pe_name, pums[pe_name])
            req, rsp = CHANNEL_IDS[unit]
            design.add_channel(req, "%s_req" % unit, "sysbus")
            design.add_channel(rsp, "%s_rsp" % unit, "sysbus")
            design.add_process("p_%s" % unit, src, "main", pe_name)
    return design, frames


def compile_sw_image(params=None, n_frames=4, seed=1):
    """Compile the SW-only decoder to an R32 image (for the ISS and for
    direct :func:`~repro.cycle.cpu.run_to_halt` board runs)."""
    params = params or Mp3Params()
    cpu_src, _, frames = build_sources("SW", params, n_frames, seed)
    decl = _SwDecl(cpu_src)
    ir_program = compile_process(decl)
    image = compile_program(
        ir_program, "main", (), stack_words=MP3_STACK_WORDS
    )
    return image, ir_program, frames


class _SwDecl:
    """Minimal stand-in for a ProcessDecl (source + entry only)."""

    def __init__(self, source):
        self.source = source
        self.entry = "main"
        self.args = ()
