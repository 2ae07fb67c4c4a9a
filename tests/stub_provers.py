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

# Closes its output, then exits 0.3 s later: the pipes reach end of file
# well before the process can be reaped.
CLOSES_THEN_SLEEPS = """
import os
import sys
import time

print("% SZS status Theorem for " + sys.argv[1], flush=True)
devnull = os.open(os.devnull, os.O_WRONLY)
os.dup2(devnull, 1)
os.dup2(devnull, 2)
time.sleep(0.3)
"""

# Starts a background child in its session, writes the child's pid to
# <problem>.child, closes its output and sleeps past any test's limit.
CLOSES_THEN_HANGS = """
import os
import subprocess
import sys
import time

child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
with open(sys.argv[1] + ".child", "w") as handle:
    handle.write(str(child.pid))
print("% SZS status Theorem for " + sys.argv[1], flush=True)
devnull = os.open(os.devnull, os.O_WRONLY)
os.dup2(devnull, 1)
os.dup2(devnull, 2)
time.sleep(60)
"""

# Starts a child in a session of its own, which inherits its stdout and
# stderr, writes the child's pid to <problem>.child and sleeps past any
# test's limit: a kill of the prover's session leaves the child running
# with the prover's output open.
ESCAPES = """
import subprocess
import sys
import time

child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(10)"],
                         start_new_session=True)
with open(sys.argv[1] + ".child", "w") as handle:
    handle.write(str(child.pid))
time.sleep(60)
"""

# Writes more than 64 KiB to each stream, with CRLF and lone CR line ends,
# bytes that are not UTF-8 and a two-byte character, then (when asked)
# the SZS line.
LOUD = """
import sys

for stream, name in ((sys.stdout.buffer, b"out"), (sys.stderr.buffer, b"err")):
    stream.write(b"caf\\xc3\\xa9 \\xff\\xfe half\\r\\nlone\\rend\\r\\n" * 40)
    for n in range(3000):
        stream.write(b"fof(%s_%d, axiom, p).\\r\\n" % (name, n))
    stream.flush()
if {szs}:
    print("% SZS status Theorem for " + sys.argv[1])
"""


def loud(szs: bool) -> str:
    """The body of a stub with large, untidy output, and an SZS line at
    its end if ``szs``."""
    return LOUD.format(szs=szs)


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

# Proves only once its own address-space cap reads the configured bytes;
# polling makes the verdict independent of when the harness sets the cap.
CAPPED_AT = """
import resource
import sys
import time

def capped():
    return resource.getrlimit(resource.RLIMIT_AS) == ({limit}, {limit})

deadline = time.monotonic() + 5.0
while not capped() and time.monotonic() < deadline:
    time.sleep(0.001)
status = "Theorem" if capped() else "GaveUp"
print("% SZS status " + status + " for " + sys.argv[1])
"""


def capped_at(mib: int) -> str:
    """The body of a stub that proves only under a ``mib`` MiB cap."""
    return CAPPED_AT.format(limit=mib * 1024 * 1024)


def stub_config(tmp_path, body: str, name: str = "stub",
                **config_kwargs) -> ProverConfig:
    script = tmp_path / f"{name}.py"
    script.write_text(textwrap.dedent(body))
    config_kwargs.setdefault("time_limit", 10.0)
    return ProverConfig(command=f"{sys.executable} {script} {{problem}}",
                        **config_kwargs)
