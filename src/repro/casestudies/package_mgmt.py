'''Case study 2: package management for GNU Emacs (section 4.1).

"The script provides functions to download, compile, install, and
uninstall Emacs.  Unlike a typical package manager, the script has a
detailed security interface for each function.  For example, only the
function for downloading the source code can access the network, and only
the install function can write to the intended installation directory.
In addition, the install function is restricted from reading, altering,
or removing any existing files in the installation directory, and the
uninstall function's contract gives a list of files that it is permitted
to remove."
'''

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import Session, World, as_kernel
from repro.casestudies.probes import make_probe_batch
from repro.kernel.kernel import Kernel

CAP_SCRIPT = """\
#lang shill/cap
require shill/native;

# Only download may touch the network: it alone takes a socket factory.
provide download :
  {wallet : native_wallet, net : socket_factory,
   dest : dir(+lookup, +path, +stat, +create-file with full_privs)} -> is_num;

provide unpack :
  {wallet : native_wallet, archive : is_file && readonly,
   dest : dir(+lookup, +contents, +path, +stat, +chdir,
              +create-file with full_privs,
              +create-dir with full_privs)} -> is_num;

provide configure_pkg :
  {wallet : native_wallet, srcdir : is_dir && full_privs} -> is_num;

provide build :
  {wallet : native_wallet, srcdir : is_dir && full_privs} -> is_num;

# Install may only *add* to the prefix: lookups propagate nothing, so
# existing files stay unreadable, unwritable, and undeletable.
provide install_pkg :
  {wallet : native_wallet, srcdir : is_dir && full_privs,
   prefix : dir(+lookup with {}, +path, +stat,
                +create-file with full_privs,
                +create-dir with full_privs)} -> is_num;

# Uninstall gets the prefix for traversal only, plus capabilities for
# exactly the files it is permitted to remove.
provide uninstall_pkg :
  {wallet : native_wallet,
   prefix : dir(+lookup with {}, +path, +stat),
   removable : is_list} -> is_num;

download = fun(wallet, net, dest) {
  curl = pkg_native("curl", wallet);
  archive = create_file(dest, "emacs-24.3.tar.gz");
  curl(["-o", archive, "http://ftp.gnu.org/gnu/emacs/emacs-24.3.tar.gz"],
       extras = [net, archive, dest]);
}

unpack = fun(wallet, archive, dest) {
  tar = pkg_native("tar", wallet);
  tar(["xzf", archive, "-C", dest], extras = [archive, dest]);
}

configure_pkg = fun(wallet, srcdir) {
  conf = lookup(srcdir, "configure");
  exec(conf, [conf], extras = [wallet, srcdir], cwd = srcdir);
}

build = fun(wallet, srcdir) {
  gmake = pkg_native("gmake", wallet);
  gmake(["-C", srcdir], extras = [wallet, srcdir], cwd = srcdir);
}

install_pkg = fun(wallet, srcdir, prefix) {
  gmake = pkg_native("gmake", wallet);
  gmake(["-C", srcdir, "install"], extras = [wallet, srcdir, prefix], cwd = srcdir);
}

uninstall_pkg = fun(wallet, prefix, removable) {
  rm = pkg_native("rm", wallet);
  rm(concat(["-f"], removable), extras = [prefix, removable]);
}
"""

AMBIENT_SCRIPT_TEMPLATE = """\
#lang shill/ambient

require shill/native;
require "emacs_pkg.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root,
                       "/bin:/usr/bin:/usr/local/bin",
                       "/lib:/usr/lib:/usr/local/lib",
                       pipe_factory);
downloads = open_dir("{downloads}");
download(wallet, socket_factory, downloads);
archive = open_file("{downloads}/emacs-24.3.tar.gz");
unpack(wallet, archive, downloads);
srcdir = open_dir("{downloads}/emacs-24.3");
configure_pkg(wallet, srcdir);
build(wallet, srcdir);
prefix = open_dir("{prefix}");
install_pkg(wallet, srcdir, prefix);
emacs_bin = open_file("{prefix}/bin/emacs");
doc = open_file("{prefix}/share/DOC");
copying = open_file("{prefix}/share/COPYING");
uninstall_pkg(wallet, prefix, [emacs_bin, doc, copying]);
"""

SCRIPTS = {"emacs_pkg.cap": CAP_SCRIPT}


def emacs_world(install_shill: bool = True, tarball: bytes | None = None) -> World:
    """The standard world: the base image, the simulated GNU mirror, and
    the download/install directories the lifecycle works in."""
    return (
        World(install_shill=install_shill)
        .with_emacs_mirror(tarball)
        .with_dir("/root/downloads")
        .with_dir("/usr/local/emacs")
    )


#: One straight-line ambient probe touching the downloads fixture — the
#: executor-equivalence suites run it across every execution strategy.
PROBE_AMBIENT = """\
#lang shill/ambient
dl = open_dir("/root/downloads");
entries = contents(dl);
append(stdout, path(dl) + "\\n");
"""


def probe_batch(jobs: int = 3, install_shill: bool = True, cache: bool = False,
                tarball: bytes | None = None):
    """Fixture probes over this world (see :mod:`repro.casestudies.probes`)."""
    return make_probe_batch(lambda: emacs_world(install_shill, tarball),
                            PROBE_AMBIENT, jobs=jobs, cache=cache)


@dataclass
class PackageManager:
    """Python driver around the SHILL package-management script,
    exposing each phase separately (the benchmark times them as the
    Download/Untar/Configure/Make/Install/Uninstall sub-tasks)."""

    kernel: "World | Kernel"
    user: str = "root"
    downloads: str = "/root/downloads"
    prefix: str = "/usr/local/emacs"
    session: Session = field(init=False)
    exports: dict = field(init=False)
    _wallet: object = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.kernel = as_kernel(self.kernel)
        self.session = Session(self.kernel, user=self.user, cwd="/root",
                               scripts=SCRIPTS)
        self.exports = self.session.load_cap("emacs_pkg.cap", importer="emacs.ambient")
        for path in (self.downloads, self.prefix):
            self._mkdirs(path)

    def _mkdirs(self, path: str) -> None:
        from repro.world.image import WorldBuilder

        WorldBuilder(self.kernel).ensure_dir(path)

    def _wallet_value(self):
        if self._wallet is None:
            from repro.capability.caps import PipeFactoryCap
            from repro.stdlib.native import create_wallet, populate_native_wallet

            wallet = create_wallet()
            populate_native_wallet(
                wallet,
                self.session.open_dir("/"),
                "/bin:/usr/bin:/usr/local/bin",
                "/lib:/usr/lib:/usr/local/lib",
                PipeFactoryCap(self.session.runtime.sys),
            )
            self._wallet = wallet
        return self._wallet

    def _call(self, name: str, *args) -> int:
        status = self.session.call(self.exports[name], *args)
        if status != 0:
            raise RuntimeError(f"{name} failed with status {status}")
        return status

    # -- the six phases ---------------------------------------------------

    def download(self) -> int:
        from repro.capability.caps import SocketFactoryCap

        return self._call(
            "download", self._wallet_value(), SocketFactoryCap(),
            self.session.open_dir(self.downloads),
        )

    def unpack(self) -> int:
        return self._call(
            "unpack", self._wallet_value(),
            self.session.open_file(f"{self.downloads}/emacs-24.3.tar.gz"),
            self.session.open_dir(self.downloads),
        )

    def configure(self) -> int:
        return self._call(
            "configure_pkg", self._wallet_value(),
            self.session.open_dir(f"{self.downloads}/emacs-24.3"),
        )

    def build(self) -> int:
        return self._call(
            "build", self._wallet_value(),
            self.session.open_dir(f"{self.downloads}/emacs-24.3"),
        )

    def install(self) -> int:
        return self._call(
            "install_pkg", self._wallet_value(),
            self.session.open_dir(f"{self.downloads}/emacs-24.3"),
            self.session.open_dir(self.prefix),
        )

    def uninstall(self) -> int:
        removable = [
            self.session.open_file(f"{self.prefix}/bin/emacs"),
            self.session.open_file(f"{self.prefix}/share/DOC"),
            self.session.open_file(f"{self.prefix}/share/COPYING"),
        ]
        return self._call(
            "uninstall_pkg", self._wallet_value(),
            self.session.open_dir(self.prefix), removable,
        )

    def full_cycle(self) -> None:
        self.download()
        self.unpack()
        self.configure()
        self.build()
        self.install()
        self.uninstall()


def run_full_ambient(world: "World | Kernel", user: str = "root") -> Session:
    """Run the whole lifecycle through the ambient script (the form a
    SHILL user would actually write).  Returns the finished session."""
    kernel = as_kernel(world)
    session = Session(kernel, user=user, cwd="/root", scripts=SCRIPTS)
    from repro.world.image import WorldBuilder

    WorldBuilder(kernel).ensure_dir("/root/downloads")
    WorldBuilder(kernel).ensure_dir("/usr/local/emacs")
    source = AMBIENT_SCRIPT_TEMPLATE.format(downloads="/root/downloads", prefix="/usr/local/emacs")
    session.run_ambient(source, "emacs.ambient")
    return session
