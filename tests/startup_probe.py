"""Run one ``knowhow check`` or ``knowhow prove`` in this fresh interpreter
and report what it loaded.

Usage: python startup_probe.py MODEL_FILE [--formula TEXT] [NAME ...]
       python startup_probe.py PROOF_FILE [NAME ...]

Checks TEXT (default ``H{a} p``) at ``w0 ; a=1 ; w1`` of MODEL_FILE (the
bundled ``t1`` model), or proves PROOF_FILE (a name ending in ``.proof``),
through ``knowhow.cli.main``, then reads each NAME from the ``knowhow``
package.  The command's output comes first; the last line is one JSON
object with its exit code, the file ``knowhow`` was imported from, which of
its lazy modules have run, and which watched standard modules the import
and the command loaded.
"""
import sys

WATCHED = ("dataclasses", "hashlib", "importlib.resources", "inspect", "json", "typing")
LAZY = {"knowhow.proofkit": "verify", "knowhow.harness": "lemma_suite"}

path, *names = sys.argv[1:]
formula = "H{a} p"
if names[:1] == ["--formula"]:
    formula, names = names[1], names[2:]
if path.endswith(".proof"):
    argv = ["prove", path]
else:
    argv = ["check", "--system", path, "--history", "w0 ; a=1 ; w1", "--formula", formula]

before = set(sys.modules)
import knowhow.cli  # noqa: E402

code = knowhow.cli.main(argv)
for name in names:
    getattr(knowhow, name)
# read the module's own dict: a normal attribute read would run a lazy module
executed = sorted(name for name, marker in LAZY.items()
                  if marker in object.__getattribute__(sys.modules[name], "__dict__"))
imported = sorted(m for m in WATCHED if m in sys.modules and m not in before)
registered = sorted(name for name in LAZY if name in sys.modules)

import json  # noqa: E402  (only after the watched modules were recorded)

print(json.dumps({"exit": code, "file": knowhow.__file__, "registered": registered,
                  "executed": executed, "imported": imported}))
