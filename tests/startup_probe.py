"""Run one ``knowhow check`` in this fresh interpreter and report what it loaded.

Usage: python startup_probe.py MODEL_FILE [NAME ...]

Checks ``H{a} p`` at ``w0 ; a=1 ; w1`` of MODEL_FILE (the bundled ``t1``
model) through ``knowhow.cli.main``, then reads each NAME from the
``knowhow`` package.  The check's output comes first; the last line is one
JSON object with the check's exit code, the file ``knowhow`` was imported
from, which of its lazy modules have run, and which watched standard
modules the import and the check loaded.
"""
import sys

WATCHED = ("hashlib", "importlib.resources", "json")
LAZY = {"knowhow.proofkit": "verify", "knowhow.harness": "lemma_suite"}

before = set(sys.modules)
import knowhow.cli  # noqa: E402

code = knowhow.cli.main(["check", "--system", sys.argv[1],
                         "--history", "w0 ; a=1 ; w1", "--formula", "H{a} p"])
for name in sys.argv[2:]:
    getattr(knowhow, name)
# read the module's own dict: a normal attribute read would run a lazy module
executed = sorted(name for name, marker in LAZY.items()
                  if marker in object.__getattribute__(sys.modules[name], "__dict__"))
imported = sorted(m for m in WATCHED if m in sys.modules and m not in before)
registered = sorted(name for name in LAZY if name in sys.modules)

import json  # noqa: E402  (only after the watched modules were recorded)

print(json.dumps({"exit": code, "file": knowhow.__file__, "registered": registered,
                  "executed": executed, "imported": imported}))
