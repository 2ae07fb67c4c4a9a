"""Scripted stand-ins for an external prover, used to exercise the harness."""

import sys
import textwrap

from ontoclose.prover import ProverConfig

THEOREM = """
import sys
print("% SZS status Theorem for " + sys.argv[1])
print("fof(orig_1, axiom, $true).")
"""

COUNTER_SATISFIABLE = """
import sys
print("% SZS status CounterSatisfiable for " + sys.argv[1])
"""

SLEEPER = """
import time
time.sleep(60)
"""

GARBAGE = """
print("thermal anomaly in sector 7G")
raise SystemExit(3)
"""

WRONG_STATUS = """
import sys
print("% SZS status Telepathy for " + sys.argv[1])
"""

NON_UTF8 = """
import sys
sys.stdout.buffer.write(b"\\xff\\xfe not utf-8\\n")
sys.stdout.buffer.flush()
print("% SZS status Theorem for " + sys.argv[1])
"""

# A genuinely sound (if nearly useless) decision procedure: the conjecture
# is entailed when it appears verbatim among the axioms.
TRIVIAL_ENTAILMENT = """
import re
import sys

text = open(sys.argv[1]).read()
axioms = dict(re.findall(r"fof\\((\\w+), axiom, (.*)\\)\\.", text))
conjectures = re.findall(r"fof\\(\\w+, conjecture, (.*)\\)\\.", text)
match = next((name for name, body in axioms.items()
              if conjectures and body == conjectures[0]), None)
if match:
    print("% SZS status Theorem for " + sys.argv[1])
    print("fof(" + match + ", axiom, " + axioms[match] + ").")
else:
    print("% SZS status CounterSatisfiable for " + sys.argv[1])
"""


def stub_config(tmp_path, body: str, name: str = "stub",
                **config_kwargs) -> ProverConfig:
    script = tmp_path / f"{name}.py"
    script.write_text(textwrap.dedent(body))
    config_kwargs.setdefault("time_limit", 10.0)
    return ProverConfig(command=f"{sys.executable} {script} {{problem}}",
                        **config_kwargs)
