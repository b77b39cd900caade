"""One `pristi` child process driven over its real stdin and stdout.

The harness uses two threads: the caller writes, and one reader thread
timestamps every stdout line as it arrives. Peak RSS and CPU time come from
the kernel's accounting of the reaped child (`wait4`).
"""

import os
import signal
import subprocess
import threading
import time


class Child:
    def __init__(self, argv, stderr_path):
        self.spawned = time.perf_counter()
        with open(stderr_path, "ab") as err:
            self.proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err
            )
        self.lines = []  # (perf_counter at read, raw line bytes)
        self.cond = threading.Condition()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.rusage = None
        self.exit_code = None

    def _read(self):
        for raw in self.proc.stdout:
            now = time.perf_counter()
            with self.cond:
                self.lines.append((now, raw))
                self.cond.notify_all()
        with self.cond:
            self.cond.notify_all()

    def send(self, data):
        """Write and flush; returns the time the write completed (a full pipe
        blocks here, which is why callers time answers from the due time)."""
        self.proc.stdin.write(data)
        self.proc.stdin.flush()
        return time.perf_counter()

    def wait_lines(self, count, timeout):
        """Block until `count` stdout lines have arrived, stdout closed, or
        `timeout` seconds passed; returns how many lines arrived."""
        deadline = time.perf_counter() + timeout
        with self.cond:
            while len(self.lines) < count and self.reader.is_alive():
                left = deadline - time.perf_counter()
                if left <= 0:
                    break
                self.cond.wait(left)
            return len(self.lines)

    def wait_for(self, predicate, timeout):
        """Block until a stdout line satisfies `predicate(bytes)`; returns its
        read time, or None on timeout or end of output."""
        deadline = time.perf_counter() + timeout
        seen = 0
        with self.cond:
            while True:
                for t, raw in self.lines[seen:]:
                    if predicate(raw):
                        return t
                seen = len(self.lines)
                left = deadline - time.perf_counter()
                if left <= 0 or not self.reader.is_alive():
                    return None
                self.cond.wait(left)

    def cpu_ticks(self):
        """User+system CPU time the running child has used so far, in clock
        ticks (`/proc/<pid>/stat` fields 14 and 15)."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])

    def wait_idle(self, timeout, quiet=0.1):
        """Block until the child has used no CPU for `quiet` seconds, or
        `timeout` seconds passed."""
        deadline = time.perf_counter() + timeout
        before = self.cpu_ticks()
        while time.perf_counter() < deadline:
            time.sleep(quiet)
            now = self.cpu_ticks()
            if now == before:
                return
            before = now

    def finish(self, timeout):
        """Close stdin, wait up to `timeout` s for exit (killing the child
        after that), reap it and join the reader. Idempotent."""
        if self.exit_code is not None:
            return self.exit_code
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        deadline = time.perf_counter() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.send_signal(signal.SIGKILL)
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.exit_code
        self.rusage = usage
        self.reader.join()
        self.proc.stdout.close()
        return self.exit_code

    @property
    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux

    def kill(self):
        if self.exit_code is None:
            self.finish(0)
