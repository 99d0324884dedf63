"""Set-up probe: import crossmoji, load a run config and parse the emoji
inventory in a fresh process, then print `ready`.

    python3 bench/ready.py run.json

The benchmark times this from spawn to `ready`: the work every `crossmoji`
invocation does before its first stage starts ingesting.
"""

import sys

from crossmoji import cli  # noqa: F401  (what `crossmoji` imports at start)
from crossmoji.pipeline import Pipeline, load_config

if __name__ == "__main__":
    Pipeline(load_config(sys.argv[1])).inventory
    print("ready", flush=True)
