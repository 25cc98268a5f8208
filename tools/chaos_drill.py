#!/usr/bin/env python3
"""Chaos drill: seeded random fault plans against the real cacval
binary, across commands (check / lint / equiv) and execution modes
(serial / serial with POR / serve).

The contract (docs/robustness.md): under any injected fault plan a run
must end, within the watchdog, in exactly one of

  * the baseline exit code with a byte-identical verdict document, or
  * a typed retryable failure — exit 4 (busy) or exit 5 (unreachable)
    for service runs.

Never a hang, never a crash, never a silently different verdict.

Phases:

  1. baseline — unfaulted `--format=json` documents per config
  2. serial   — seeded disk-fault plans (checkpoint + spill paths);
                disk faults are degrade-only, so these must reproduce
                the baseline bytes AND the baseline exit
  3. por      — the same plans on `check --por`, against its own
                unfaulted `--por` baseline
  4. static   — lint / equiv under the same seeds (the plans mostly
                cannot fire; the point is that arming the seam never
                perturbs a path that does no I/O)
  5. serve    — seeded journal / cache / transport-error plans against
                a live server; client-side retry + content-addressed
                re-attach must converge on the baseline bytes or a
                typed retryable exit
  6. enospc   — the dedicated ENOSPC-on-spill scenario: resident-only
                degradation, reported, verdict unchanged
  7. kill     — SIGKILL the server mid-stream: the client must fail
                with the typed retryable exit (5) within its timeout,
                and a restarted server must re-attach the journaled
                job to the baseline bytes

Usage: chaos_drill.py CACVAL RACY_PTX VECADD_PTX [SEEDS_PER_MODE]
"""

import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

WATCHDOG_S = 120  # no single cacval invocation may outlive this

RACY_ARGS = ["--grid", "3", "--block", "2", "--warp", "1",
             "--global", "64", "--param", "out=0"]
# ~2s / ~96k states: enough traffic to actually spill under a 1 MiB
# resident budget, and enough wall time to SIGKILL a server mid-job.
SLOW_ARGS = ["--grid", "4", "--block", "2", "--warp", "1",
             "--global", "64", "--param", "out=0"]
EQUIV_ARGS = ["--block", "8", "--warp", "8"]

RETRYABLE_EXITS = (4, 5)  # busy, unreachable

plans_run = 0


def fail(msg, output=""):
    print("DRILL FAIL:", msg)
    if output:
        print("--- output ---")
        print(output[:4000])
    sys.exit(1)


def run(cmd, env_plan=None, timeout=WATCHDOG_S):
    """Run one cacval invocation under the watchdog; a hang or a crash
    signal is an immediate drill failure."""
    env = dict(os.environ)
    env.pop("CAC_FAULT_PLAN", None)
    if env_plan:
        env["CAC_FAULT_PLAN"] = env_plan
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, env=env,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("HANG under plan %r: %s" % (env_plan, " ".join(cmd)))
    if p.returncode < 0:
        fail("CRASH (signal %d) under plan %r: %s"
             % (-p.returncode, env_plan, " ".join(cmd)),
             p.stderr)
    return p.returncode, p.stdout, p.stderr


def check_outcome(what, plan, code, out, base_code, base_out,
                  allow_retryable=False):
    """The drill's core assertion: baseline-identical or typed
    retryable, nothing else."""
    if allow_retryable and code in RETRYABLE_EXITS and code != base_code:
        return "retryable(%d)" % code
    if code != base_code:
        fail("%s: exit %d != baseline %d under plan %r"
             % (what, code, base_code, plan))
    if out != base_out:
        fail("%s: verdict diverged from baseline under plan %r\n"
             "base: %r...\ngot:  %r..."
             % (what, plan, base_out[:160], out[:160]))
    return "identical"


# -- seeded plan generation -------------------------------------------

def disk_rules(rng):
    pool = [
        lambda: "op=rename,path=*.ckpt,nth=%d,err=%s"
                % (rng.randint(1, 3), rng.choice(["ENOSPC", "EIO"])),
        lambda: "op=write,path=*.ckpt,every=%d,err=ENOSPC"
                % rng.randint(1, 3),
        lambda: "op=write,path=*cac-spill*,nth=%d,err=ENOSPC"
                % rng.randint(1, 4),
        lambda: "op=open,path=*cac-spill*,every=1,err=EACCES",
        lambda: "op=write,path=*cac-spill*,p=0.%d,err=EIO"
                % rng.randint(2, 7),
    ]
    return [rng.choice(pool)() for _ in range(rng.randint(1, 2))]


def delay_rules(rng):
    return ["op=%s,every=%d,delay=%d"
            % (rng.choice(["send", "recv"]), rng.randint(40, 90),
               rng.randint(1, 4))]


def serve_rules(rng):
    pool = [
        lambda: "op=write,path=*.req.json,every=1,err=ENOSPC",
        lambda: "op=write,path=*cache*,p=0.5,err=EIO",
        lambda: "op=connect,nth=1,err=ECONNREFUSED",
        lambda: "op=recv,nth=%d,err=ECONNRESET" % rng.randint(1, 6),
        lambda: "op=send,nth=%d,err=EPIPE" % rng.randint(1, 6),
        lambda: "op=send,delay=%d" % rng.randint(1, 5),
    ]
    return [rng.choice(pool)() for _ in range(rng.randint(1, 3))]


def make_plan(seed, rules):
    global plans_run
    plans_run += 1
    return "seed=%d;%s" % (seed, ";".join(rules))


# -- serve plumbing (borrowed from serve_crash_drill.py) ---------------

def start_server(cacval, sock, state_dir, env_plan=None):
    env = dict(os.environ)
    env.pop("CAC_FAULT_PLAN", None)
    if env_plan:
        env["CAC_FAULT_PLAN"] = env_plan
    proc = subprocess.Popen(
        [cacval, "serve", "--socket", sock, "--state-dir", state_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    for _ in range(400):
        try:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.connect(sock)
            probe.close()
            return proc
        except OSError:
            pass
        if proc.poll() is not None:
            fail("server exited at startup", proc.stdout.read())
        time.sleep(0.05)
    proc.kill()
    fail("server never bound its socket")


def stop_server(proc):
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("server did not exit on SIGINT")


def main():
    if len(sys.argv) not in (4, 5):
        fail("usage: chaos_drill.py CACVAL RACY_PTX VECADD_PTX [SEEDS]")
    cacval, racy, vecadd = sys.argv[1], sys.argv[2], sys.argv[3]
    seeds = int(sys.argv[4]) if len(sys.argv) == 5 else 14
    tmp = tempfile.mkdtemp(prefix="cac_chaos_")

    def fresh(name):
        d = os.path.join(tmp, name)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return d

    def store_args(d):
        return ["--spill-dir", d, "--store-budget", "1",
                "--checkpoint", os.path.join(d, "run.ckpt"),
                "--checkpoint-every", "500"]

    # -- 1. baselines --------------------------------------------------
    base = {}
    base["check"] = run([cacval, "check", racy] + RACY_ARGS
                        + ["--format=json"])
    base["por"] = run([cacval, "check", racy] + RACY_ARGS
                      + ["--por", "--format=json"])
    base["slow"] = run([cacval, "check", racy] + SLOW_ARGS
                       + ["--format=json"])
    base["lint"] = run([cacval, "lint", racy, "--format=json"])
    base["equiv"] = run([cacval, "equiv", vecadd, vecadd] + EQUIV_ARGS
                        + ["--format=json"])
    for name, (code, out, _) in sorted(base.items()):
        print("baseline %-5s: exit %d, %d bytes" % (name, code, len(out)))

    # -- 2/3. serial, then serial POR, under seeded disk plans ---------
    for seed in range(1, seeds + 1):
        rng = random.Random(1000 + seed)
        rules = disk_rules(rng)
        plan = make_plan(seed, rules)
        d = fresh("serial_%d" % seed)
        code, out, _ = run([cacval, "check", racy] + RACY_ARGS
                           + store_args(d) + ["--format=json"], plan)
        check_outcome("serial seed %d" % seed, plan, code, out,
                      base["check"][0], base["check"][1])

        plan = make_plan(seed, rules)
        d = fresh("por_%d" % seed)
        code, out, _ = run([cacval, "check", racy] + RACY_ARGS
                           + store_args(d) + ["--por", "--format=json"],
                           plan)
        check_outcome("por seed %d" % seed, plan, code, out,
                      base["por"][0], base["por"][1])
    print("serial+por: %d seeded plans, all byte-identical" % (2 * seeds))

    # -- 4. static commands under the same seams -----------------------
    for seed in range(1, seeds // 2 + 1):
        rng = random.Random(3000 + seed)
        plan = make_plan(seed, disk_rules(rng))
        code, out, _ = run([cacval, "lint", racy, "--format=json"], plan)
        check_outcome("lint seed %d" % seed, plan, code, out,
                      base["lint"][0], base["lint"][1])
        rng = random.Random(4000 + seed)
        plan = make_plan(seed, disk_rules(rng) + delay_rules(rng))
        code, out, _ = run([cacval, "equiv", vecadd, vecadd] + EQUIV_ARGS
                           + ["--format=json"], plan)
        check_outcome("equiv seed %d" % seed, plan, code, out,
                      base["equiv"][0], base["equiv"][1])
    print("lint+equiv: %d seeded plans, all byte-identical"
          % (2 * (seeds // 2)))

    # -- 5. serve under seeded journal/cache/transport plans -----------
    outcomes = {"identical": 0}
    for seed in range(1, seeds + 1):
        rng = random.Random(5000 + seed)
        plan = make_plan(seed, serve_rules(rng))
        d = fresh("serve_%d" % seed)
        sock = os.path.join(d, "sock")
        server = start_server(cacval, sock, os.path.join(d, "state"),
                              env_plan=plan)
        code, out, err = run([cacval, "submit", "check", racy] + RACY_ARGS
                             + ["--to", sock, "--timeout", "20000"], plan)
        tag = check_outcome("serve seed %d" % seed, plan, code, out,
                            base["check"][0], base["check"][1],
                            allow_retryable=True)
        outcomes[tag] = outcomes.get(tag, 0) + 1
        stop_server(server)
    print("serve: %d seeded plans -> %s" % (seeds, outcomes))

    # -- 6. the ENOSPC-on-spill scenario -------------------------------
    d = fresh("enospc")
    plan = make_plan(0, ["op=write,path=*cac-spill*,nth=1,err=ENOSPC"])
    code, out, _ = run([cacval, "check", racy] + SLOW_ARGS
                       + ["--spill-dir", d, "--store-budget", "1",
                          "--format=json"], plan)
    check_outcome("enospc/json", plan, code, out,
                  base["slow"][0], base["slow"][1])
    # The text rendering must surface the degradation it absorbed.
    code, out, _ = run([cacval, "check", racy] + SLOW_ARGS
                       + ["--spill-dir", d, "--store-budget", "1"], plan)
    if "spill tier degraded" not in out:
        fail("enospc/text: degradation not reported", out)
    print("enospc: resident-only degradation, verdict byte-identical")

    # -- 7. SIGKILL the server mid-stream ------------------------------
    d = fresh("kill")
    sock = os.path.join(d, "sock")
    state = os.path.join(d, "state")
    server = start_server(cacval, sock, state)
    client = subprocess.Popen(
        [cacval, "submit", "check", racy] + SLOW_ARGS
        + ["--to", sock, "--timeout", "15000", "--retries", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    # Let the job journal and start, then kill without any cleanup.
    deadline = time.time() + 60
    jobs = os.path.join(state, "jobs")
    while time.time() < deadline:
        if os.path.isdir(jobs) and any(
                e.endswith(".req.json") for e in os.listdir(jobs)):
            break
        time.sleep(0.02)
    else:
        fail("kill: job was never journaled")
    server.kill()
    server.wait()
    try:
        out, err = client.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        client.kill()
        fail("kill: client hung after server death (watchdog)")
    if client.returncode != 5:
        fail("kill: client exit %d, want the typed retryable 5"
             % client.returncode, out + err)
    print("kill: mid-stream death -> typed retryable exit 5")

    # Reconnect-and-reattach: the restarted server recovers the journal
    # and the resubmission lands on the baseline bytes.
    server = start_server(cacval, sock, state)
    code, out, err = run([cacval, "submit", "check", racy] + SLOW_ARGS
                         + ["--to", sock])
    if code != base["slow"][0]:
        fail("kill: post-restart exit %d != baseline" % code, out + err)
    if out != base["slow"][1]:
        fail("kill: post-restart verdict not byte-identical")
    stop_server(server)
    print("kill: restart re-attached the journaled job, byte-identical")

    print("chaos: %d fault plans exercised" % plans_run)
    if plans_run < 50:
        fail("fewer than 50 fault plans exercised (%d)" % plans_run)
    shutil.rmtree(tmp, ignore_errors=True)
    print("DRILL PASS")


if __name__ == "__main__":
    main()
