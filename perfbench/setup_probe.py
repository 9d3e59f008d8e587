"""Set-up probe: import fairtopk, load every input of a manifest, say so.

    python3 perfbench/setup_probe.py <queries.json>

run.py times one fresh interpreter running this file, from process start
to the ``loaded`` line, as one sample of the set-up time.
"""

import json
import os
import sys

from run import import_program, load_inputs

if __name__ == "__main__":
    pipeline, _ = import_program()
    with open(sys.argv[1], encoding="utf-8") as fh:
        manifest = json.load(fh)
    load_inputs(pipeline, manifest)
    sys.stdout.write("loaded\n")
    sys.stdout.flush()
    os._exit(0)
