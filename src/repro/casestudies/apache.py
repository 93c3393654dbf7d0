'''Case study 3: sandboxing the Apache web server (section 4.1).

"the script's contract gives the webserver read-only access to
configuration files and web content directories, the ability to create
and use sockets, and write-only access to log files."

Notably, "programs running in a SHILL sandbox are not isolated from the
rest of the system": while httpd serves, other processes can add content
to the docroot and read the growing access log — a test demonstrates
exactly this.
'''

from __future__ import annotations

from dataclasses import dataclass

from repro.api import RunResult, Session, World, as_kernel
from repro.casestudies.probes import make_probe_batch
from repro.kernel.kernel import Kernel
from repro.kernel.sockets import AddressFamily, SocketType

CAP_SCRIPT = """\
#lang shill/cap
require shill/native;

provide start_server :
  {wallet : native_wallet,
   net : socket_factory,
   config : is_file && readonly,
   docroot : is_dir && readonly,
   logdir : dir(+lookup with {}, +path, +stat,
                +create-file with {+write, +append, +stat, +path}),
   logfile : file(+write, +append, +stat, +path)} -> is_num;

start_server = fun(wallet, net, config, docroot, logdir, logfile) {
  httpd = pkg_native("httpd", wallet);
  httpd(["-f", config], extras = [net, config, docroot, logdir, logfile]);
}
"""

AMBIENT_SCRIPT = """\
#lang shill/ambient

require shill/native;
require "apache.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root,
                       "/bin:/usr/bin:/usr/local/bin",
                       "/lib:/usr/lib:/usr/local/lib",
                       pipe_factory);
config = open_file("/etc/apache/httpd.conf");
docroot = open_dir("/var/www");
logdir = open_dir("/var/log");
logfile = open_file("/var/log/httpd-access.log");
start_server(wallet, socket_factory, config, docroot, logdir, logfile);
"""

SCRIPTS = {"apache.cap": CAP_SCRIPT}


def web_world(install_shill: bool = True, **fixture_kwargs) -> World:
    """The standard world: the base image plus docroot content and the
    (empty) access log the Apache workload serves and appends to."""
    return World(install_shill=install_shill).with_web_content(**fixture_kwargs)


#: One straight-line ambient probe touching the docroot fixture — the
#: executor-equivalence suites run it across every execution strategy.
PROBE_AMBIENT = """\
#lang shill/ambient
page = open_file("/var/www/page0.html");
append(stdout, read(page));
"""


def probe_batch(jobs: int = 3, install_shill: bool = True, cache: bool = False,
                **fixture_kwargs):
    """Fixture probes over this world (see :mod:`repro.casestudies.probes`)."""
    return make_probe_batch(lambda: web_world(install_shill, **fixture_kwargs),
                            PROBE_AMBIENT, jobs=jobs, cache=cache)


@dataclass
class ApacheBenchResult:
    session: Session
    run: RunResult
    responses: list[bytes]
    log_text: str


def apache_bench(
    world: "World | Kernel",
    requests: int = 16,
    path: str = "/big.bin",
    port: int = 8080,
    user: str = "root",
) -> ApacheBenchResult:
    """Run httpd sandboxed and hit it with ``requests`` queued connections
    (the "Apache Benchmark tool" role).  Returns the raw responses and the
    access log contents."""
    kernel = as_kernel(world)
    client_fds: list[tuple] = []

    def flood(listener) -> None:
        driver = kernel.spawn_process("root", "/")
        dsys = kernel.syscalls(driver)
        for _ in range(requests):
            fd = dsys.socket(AddressFamily.AF_INET, SocketType.SOCK_STREAM)
            dsys.connect(fd, ("0.0.0.0", port))
            dsys.send(fd, f"GET {path}\n".encode())
            client_fds.append((dsys, fd))

    kernel.network.register_listen_hook(("0.0.0.0", port), flood)

    session = Session(kernel, user=user, cwd="/root", scripts=SCRIPTS)
    run = session.run_ambient(AMBIENT_SCRIPT, "apache.ambient")

    responses = [dsys.recv(fd, 1 << 26) for dsys, fd in client_fds]
    sys = kernel.syscalls(kernel.spawn_process("root", "/"))
    log_text = sys.read_whole("/var/log/httpd-access.log").decode()
    return ApacheBenchResult(session, run, responses, log_text)


def baseline_bench(world: "World | Kernel", requests: int = 16,
                   path: str = "/big.bin", port: int = 8080) -> list[bytes]:
    """The same workload with httpd run unconfined (Figure 9 baseline)."""
    kernel = as_kernel(world)
    client_fds: list[tuple] = []

    def flood(listener) -> None:
        driver = kernel.spawn_process("root", "/")
        dsys = kernel.syscalls(driver)
        for _ in range(requests):
            fd = dsys.socket(AddressFamily.AF_INET, SocketType.SOCK_STREAM)
            dsys.connect(fd, ("0.0.0.0", port))
            dsys.send(fd, f"GET {path}\n".encode())
            client_fds.append((dsys, fd))

    kernel.network.register_listen_hook(("0.0.0.0", port), flood)
    launcher = kernel.spawn_process("root", "/")
    sys = kernel.syscalls(launcher)
    status = sys.spawn("/usr/local/bin/httpd", ["httpd", "-f", "/etc/apache/httpd.conf"])
    if status != 0:
        raise RuntimeError(f"httpd exited with {status}")
    return [dsys.recv(fd, 1 << 26) for dsys, fd in client_fds]
