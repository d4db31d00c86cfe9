//! Pluggable worker launchers: how a shard's worker process is started.
//!
//! The worker protocol ([`crate::run_dispatched`]) is transport-agnostic:
//! a worker is anything that runs a command line and streams NDJSON
//! records back on stdout — a local `--shards N` run is simply a fleet of
//! `N` [`LocalProcess`] hosts.  This module decouples "plan
//! shards and merge NDJSON" from "how the worker is launched": a
//! [`Transport`] turns a logical worker argv (`[program, args…]`) into the
//! OS-level [`Command`] that executes it *somewhere* — in a local child
//! process ([`LocalProcess`]), on a remote machine over ssh ([`Ssh`]), in a
//! container ([`Container`]), or under an arbitrary `sh -c` prefix
//! ([`ShellTransport`], the hermetic fake host used by the tests and the CI
//! dispatch smoke).
//!
//! Transports never interpret the worker's output — stdout piping, NDJSON
//! validation and the submission-order merge stay in `proto`.

use std::fmt;
use std::process::Command;

/// A way of launching a worker command line.
///
/// Implementations build the OS-level [`Command`]; the caller pipes its
/// stdout, waits for its exit status and validates its NDJSON records.  A
/// transport must be deterministic: the same argv always produces the same
/// command, so a retried or failed-over shard re-runs identical work.
pub trait Transport: fmt::Debug {
    /// Builds the command that runs `argv` (`argv[0]` is the worker
    /// program, the rest its arguments) through this transport.
    ///
    /// # Panics
    ///
    /// Implementations may panic on an empty `argv`; callers always pass
    /// at least the program.
    fn command(&self, argv: &[String]) -> Command;

    /// A short human-readable description for logs and error messages
    /// (e.g. `local`, `ssh root@big0`, `docker wp-soc:latest`).
    fn describe(&self) -> String;

    /// Whether the worker executes on the dispatching machine and shares
    /// its CPU ([`LocalProcess`], [`ShellTransport`]).  Callers use this
    /// to divide the local cores across co-located workers instead of
    /// oversubscribing them; remote transports (ssh, container) size
    /// their sweeps from their own machine's parallelism.
    fn runs_on_dispatcher(&self) -> bool {
        false
    }
}

/// Runs the worker as a plain child of the current process: a local
/// `--shards N` run is a fleet of `N` hosts on this transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalProcess;

impl Transport for LocalProcess {
    fn command(&self, argv: &[String]) -> Command {
        let mut cmd = Command::new(&argv[0]);
        cmd.args(&argv[1..]);
        cmd
    }

    fn describe(&self) -> String {
        "local".to_string()
    }

    fn runs_on_dispatcher(&self) -> bool {
        true
    }
}

/// Runs the worker on a remote machine: `ssh <destination> -- <argv>`.
///
/// The argv is joined into one shell-quoted string because the ssh client
/// concatenates its remaining arguments with spaces and hands them to the
/// remote login shell; quoting keeps argument boundaries (and any spaces
/// inside them) intact.  The remote machine needs the worker binary at the
/// path named by the host entry (`binary=` in the hostfile) and a
/// non-interactive ssh setup (keys/agent); no filesystem is shared — the
/// records come back over stdout like any other transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ssh {
    /// The ssh destination (`host`, `user@host`, or an `ssh_config` alias).
    pub destination: String,
}

impl Transport for Ssh {
    fn command(&self, argv: &[String]) -> Command {
        let mut cmd = Command::new("ssh");
        // BatchMode fails fast instead of hanging on a password prompt: a
        // dispatch must never block a sweep on interactive input.
        cmd.arg("-o").arg("BatchMode=yes");
        cmd.arg(&self.destination).arg("--");
        cmd.arg(
            argv.iter()
                .map(|a| shell_quote(a))
                .collect::<Vec<_>>()
                .join(" "),
        );
        cmd
    }

    fn describe(&self) -> String {
        format!("ssh {}", self.destination)
    }
}

/// Runs the worker inside a fresh container: `<engine> run --rm <image>
/// <argv>`.
///
/// The image must contain the worker binary at the path named by the host
/// entry (`binary=` in the hostfile).  `--rm` keeps repeated sweeps from
/// accumulating exited containers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container {
    /// The container engine binary: `docker` or `podman`.
    pub engine: String,
    /// The image to run.
    pub image: String,
}

impl Transport for Container {
    fn command(&self, argv: &[String]) -> Command {
        let mut cmd = Command::new(&self.engine);
        cmd.args(["run", "--rm"]).arg(&self.image).args(argv);
        cmd
    }

    fn describe(&self) -> String {
        format!("{} {}", self.engine, self.image)
    }
}

/// Runs the worker through `sh -c` with an arbitrary shell prefix — the
/// hermetic fake host.
///
/// The executed script is `<prefix> "$@"` with the worker argv bound to
/// `$@`, so an empty prefix runs the worker unchanged (a fake host that
/// behaves exactly like [`LocalProcess`]), while a prefix can simulate any
/// launcher failure mode without a real remote machine:
///
/// * `exit 7 #` — a host that always fails before the worker starts (the
///   `#` comments out the worker invocation);
/// * `echo garbage;` — a host that corrupts the NDJSON stream;
/// * `FOO=bar` — a host that injects environment.
///
/// This makes every transport-layer path (dispatch, failover, exhaustion)
/// testable with nothing but `sh`, and backs the CI dispatch smoke's fake
/// two-host `ci-hosts.conf`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShellTransport {
    /// Shell text prepended verbatim to the worker invocation `"$@"`.
    pub prefix: String,
}

impl Transport for ShellTransport {
    fn command(&self, argv: &[String]) -> Command {
        let mut cmd = Command::new("sh");
        cmd.arg("-c")
            .arg(format!("{} \"$@\"", self.prefix))
            .arg("wp_dist") // $0 of the script; "$@" starts at argv[0].
            .args(argv);
        cmd
    }

    fn describe(&self) -> String {
        if self.prefix.is_empty() {
            "shell".to_string()
        } else {
            format!("shell ({})", self.prefix)
        }
    }

    fn runs_on_dispatcher(&self) -> bool {
        true
    }
}

/// Quotes one argument for a POSIX shell: wraps it in single quotes, with
/// embedded single quotes spelled `'\''`.  Used by [`Ssh`] because the
/// remote side re-parses the joined command line with its login shell.
pub fn shell_quote(arg: &str) -> String {
    if !arg.is_empty()
        && arg.bytes().all(|b| {
            b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'/' | b'=' | b':' | b',')
        })
    {
        return arg.to_string();
    }
    let mut out = String::with_capacity(arg.len() + 2);
    out.push('\'');
    for c in arg.chars() {
        if c == '\'' {
            out.push_str("'\\''");
        } else {
            out.push(c);
        }
    }
    out.push('\'');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn rendered(cmd: &Command) -> (String, Vec<String>) {
        (
            cmd.get_program().to_string_lossy().into_owned(),
            cmd.get_args()
                .map(|a| a.to_string_lossy().into_owned())
                .collect(),
        )
    }

    #[test]
    fn local_process_runs_the_argv_directly() {
        let cmd = LocalProcess.command(&argv(&["/bin/echo", "--flag", "v"]));
        assert_eq!(
            rendered(&cmd),
            ("/bin/echo".to_string(), argv(&["--flag", "v"]))
        );
        assert_eq!(LocalProcess.describe(), "local");
        assert!(LocalProcess.runs_on_dispatcher());
    }

    #[test]
    fn only_the_co_located_transports_share_the_dispatchers_cpu() {
        assert!(LocalProcess.runs_on_dispatcher());
        assert!(ShellTransport::default().runs_on_dispatcher());
        assert!(!Ssh {
            destination: "h".to_string()
        }
        .runs_on_dispatcher());
        assert!(!Container {
            engine: "docker".to_string(),
            image: "i".to_string()
        }
        .runs_on_dispatcher());
    }

    #[test]
    fn ssh_joins_a_shell_quoted_command_line() {
        let t = Ssh {
            destination: "user@big0".to_string(),
        };
        let cmd = t.command(&argv(&["/opt/wp/table1", "--quick", "it's"]));
        let (program, args) = rendered(&cmd);
        assert_eq!(program, "ssh");
        assert_eq!(
            args,
            argv(&[
                "-o",
                "BatchMode=yes",
                "user@big0",
                "--",
                r#"/opt/wp/table1 --quick 'it'\''s'"#
            ])
        );
        assert_eq!(t.describe(), "ssh user@big0");
    }

    #[test]
    fn container_wraps_the_argv_in_engine_run() {
        let t = Container {
            engine: "podman".to_string(),
            image: "wp-soc:latest".to_string(),
        };
        let cmd = t.command(&argv(&["/usr/local/bin/table1", "--quick"]));
        let (program, args) = rendered(&cmd);
        assert_eq!(program, "podman");
        assert_eq!(
            args,
            argv(&[
                "run",
                "--rm",
                "wp-soc:latest",
                "/usr/local/bin/table1",
                "--quick"
            ])
        );
        assert_eq!(t.describe(), "podman wp-soc:latest");
    }

    #[test]
    fn shell_transport_binds_the_argv_to_dollar_at() {
        let t = ShellTransport {
            prefix: String::new(),
        };
        let cmd = t.command(&argv(&["/bin/echo", "hi"]));
        let (program, args) = rendered(&cmd);
        assert_eq!(program, "sh");
        assert_eq!(args, argv(&["-c", " \"$@\"", "wp_dist", "/bin/echo", "hi"]));
        assert_eq!(t.describe(), "shell");
        assert_eq!(
            ShellTransport {
                prefix: "exit 1 #".to_string()
            }
            .describe(),
            "shell (exit 1 #)"
        );
    }

    /// The shell fake host actually executes the worker — the one transport
    /// behaviour worth pinning with a real child process.
    #[test]
    fn shell_transport_executes_the_worker() {
        let t = ShellTransport {
            prefix: String::new(),
        };
        let out = t
            .command(&argv(&["sh", "-c", "printf 'ran %s' \"$1\"", "sh", "ok"]))
            .output()
            .expect("sh exists");
        assert!(out.status.success());
        assert_eq!(String::from_utf8_lossy(&out.stdout), "ran ok");

        let failing = ShellTransport {
            prefix: "exit 7 #".to_string(),
        };
        let out = failing
            .command(&argv(&["sh", "-c", "echo never"]))
            .output()
            .expect("sh exists");
        assert_eq!(out.status.code(), Some(7));
        assert!(out.stdout.is_empty(), "the worker never ran");
    }

    #[test]
    fn shell_quote_handles_the_awkward_cases() {
        assert_eq!(shell_quote("plain-arg_1.0/x=y"), "plain-arg_1.0/x=y");
        assert_eq!(shell_quote(""), "''");
        assert_eq!(shell_quote("two words"), "'two words'");
        assert_eq!(shell_quote("a'b"), r#"'a'\''b'"#);
        assert_eq!(shell_quote("$HOME;rm"), "'$HOME;rm'");
    }
}
