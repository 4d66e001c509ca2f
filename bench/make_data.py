"""Regenerate the benchmark's committed inputs under bench/data/.

    python3 bench/make_data.py

Writes params-<bits>.dlfp made by gen_params(bits, 42) for every field
size the workloads load, and params.json with how long each generation
took on this machine. The 1024-bit field takes about two minutes.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from dlfvault.field import gen_params, params_to_file  # noqa: E402
from run import machine  # noqa: E402
from workloads import DATA  # noqa: E402

PARAMS_SEED = 42
PARAMS_BITS = (32, 64, 128, 256, 1024)


def main():
    DATA.mkdir(exist_ok=True)
    fields = {}
    for bits in PARAMS_BITS:
        start = perf_counter()
        field = gen_params(bits, PARAMS_SEED)
        seconds = perf_counter() - start
        (DATA / f"params-{bits}.dlfp").write_bytes(params_to_file(field))
        fields[str(bits)] = {"call": f"gen_params({bits}, {PARAMS_SEED})",
                             "alpha": field.alpha, "generate_s": seconds}
        print(f"params-{bits}.dlfp: {seconds:.3f} s", flush=True)
    (DATA / "params.json").write_text(json.dumps({"machine": machine(), "fields": fields},
                                                 indent=1) + "\n")


if __name__ == "__main__":
    main()
