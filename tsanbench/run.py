#!/usr/bin/env python3
"""Build the tsanrec benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 tsanbench/run.py --workload W --seed N --seconds S --trace 0|1

W is netload, hunt or barrier-wide. The Go build cache,
temporary files, the binary and the workload's demo files all live under
.bench_build/ at the repository root, so a run writes nothing outside the
checkout. The binary replaces this process, so the workload runs in a
process of its own. The last line of standard output is the JSON result;
the exit code is 0 only when every output check passed. Without the
repository's Go module around this directory the build fails and nothing
is printed on standard output.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    # No network, no toolchain switch, no user-level go env file.
    env.update(GOENV="off", GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=readonly", GOWORK="off")
    binary = os.path.join(build, "tsanbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("tsanbench: build failed", file=sys.stderr)
        return 1
    os.chdir(root)
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
