"""Matrix Market export of system and preconditioner blocks, plus a run manifest.

Values are written with 17 significant digits so that a write/read cycle
reproduces every double bit-exactly. Every matrix written is symmetric and
goes out in coordinate real symmetric form.
"""

import json
from pathlib import Path

import scipy.io as sio
import scipy.sparse as sp

MM_PRECISION = 17


def write_matrix(path, mat) -> None:
    path = Path(path)
    mat = sp.coo_matrix(mat)
    try:
        sio.mmwrite(str(path), mat, precision=MM_PRECISION, symmetry="symmetric")
    except OSError as exc:
        raise OSError(f"could not write matrix to {path}: {exc}") from exc


def export_system(system, precon, directory) -> dict:
    """Write the assembled system, each preconditioner block, and a manifest.

    Returns the manifest dictionary (also saved as manifest.json).
    """
    spec, spaces = system.spec, system.spaces
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_matrix(directory / "system.mtx", system.matrix)
    files = {"system": "system.mtx"}
    for name in spaces.block_names:
        fname = f"precond_{name}.mtx"
        write_matrix(directory / fname, precon.block_matrix(name))
        files[f"precond_{name}"] = fname
    manifest = {
        "problem": spec.kind,
        "degree": spec.degree,
        "level": spec.level,
        "alpha": spec.alpha,
        "final_time": spec.final_time,
        "omega": spec.omega,
        "seed": spec.seed,
        "dofs": system.dim,
        "block_names": list(spaces.block_names),
        "block_dims": list(spaces.block_dims),
        "block_offsets": [int(o) for o in spaces.offsets()],
        "files": files,
    }
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
