"""Every registered program compiles to the SASS pinned in a golden.

``tests/golden/sass_digests.json`` holds one SHA-256 per registered
program and compile mode: the digest of the kernel name, source-info
flag and :meth:`~repro.sass.program.KernelCode.disassemble` text of
every launch in the program's schedule, in schedule order.  It was
captured with :func:`sass_digests` below from commit ``92568fd``, so a
compiler change that moves even one register name fails here and names
the program.  A deliberate codegen change must update the golden in the
same commit and say why.
"""

import hashlib
import json
from pathlib import Path

from repro.compiler import CompileOptions
from repro.gpu import Device
from repro.workloads import all_programs
from repro.workloads.registry import registry_key
from repro.workloads.shadow_programs import SHADOW_PROGRAMS

GOLDEN_PATH = Path(__file__).parent / "golden" / "sass_digests.json"

MODES = {"precise": CompileOptions.precise,
         "fast-math": CompileOptions.fast_math}


def sass_digests() -> dict[str, str]:
    """``"<registry key>|<mode>" -> digest`` over every registered
    program (the 151 of Table 3 plus the shadow demonstrations)."""
    out: dict[str, str] = {}
    for program in all_programs() + list(SHADOW_PROGRAMS):
        key = registry_key(program)
        for mode, options in MODES.items():
            h = hashlib.sha256()
            for spec in program.build(Device(), options()):
                code = spec.code
                h.update(f"{code.name}|{code.has_source_info}\n".encode())
                h.update(code.disassemble().encode())
                h.update(b"\n\x00")
            out[f"{key}|{mode}"] = h.hexdigest()
    return out


def test_every_program_compiles_to_its_golden_sass():
    golden = json.loads(GOLDEN_PATH.read_text())
    got = sass_digests()
    assert sorted(got) == sorted(golden)
    moved = sorted(k for k in golden if got[k] != golden[k])
    assert not moved, f"SASS changed for {len(moved)} builds: {moved[:10]}"
