//! Shared command-line plumbing for the experiment binaries.
//!
//! Every report binary understands the same two flags:
//!
//! * `--metrics` — record telemetry during the run and print the metrics
//!   snapshot to **stderr** when the run finishes. Stdout stays
//!   byte-identical to the flag-free run (the golden tests rely on this).
//! * `--serve <addr>` — additionally keep the process alive after the
//!   run, serving `/metrics`, `/alerts`, `/slo`, and `/health` over HTTP
//!   at `addr` (e.g. `127.0.0.1:9184`; port 0 picks an ephemeral port).
//!   The bound URL is announced on stderr.
//!
//! [`SuiteTelemetry`] centralizes the parsing, the enabled/disabled
//! telemetry handle, and the end-of-run behavior, so every binary treats
//! the flags identically. [`flag_value`] is the one parser for flags that
//! take a value: a flag given without its value is a usage error, which
//! the binaries report through [`usage_exit`] with exit status 2 — a
//! forgotten value never silently falls back to a default.

use perseus_telemetry::{Endpoints, Telemetry, TelemetryServer};

/// The value following `flag` in `args`, or `None` when `flag` is absent.
///
/// # Errors
///
/// `flag` is the last argument or is followed by another `--` flag.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(value) if !value.starts_with("--") => Ok(Some(value)),
            _ => Err(format!("{flag} needs a value")),
        },
    }
}

/// Prints `error: {msg}` to stderr and exits with status 2, the usage
/// error status of every binary in this crate.
pub fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The per-binary observability harness: parse once at startup, call
/// [`SuiteTelemetry::finish`] after the binary's stdout is complete.
pub struct SuiteTelemetry {
    telemetry: Telemetry,
    metrics: bool,
    serve: Option<String>,
}

impl SuiteTelemetry {
    /// Parses `--metrics` and `--serve <addr>` out of `args` (the
    /// program's arguments, program name already skipped). Telemetry is
    /// enabled iff either flag is present.
    ///
    /// # Errors
    ///
    /// `--serve` is given without an address.
    pub fn from_args(args: &[String]) -> Result<SuiteTelemetry, String> {
        let metrics = args.iter().any(|a| a == "--metrics");
        let serve = flag_value(args, "--serve")?.map(str::to_owned);
        let telemetry = if metrics || serve.is_some() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        Ok(SuiteTelemetry {
            telemetry,
            metrics,
            serve,
        })
    }

    /// The telemetry handle the binary should instrument with (disabled
    /// unless `--metrics` or `--serve` was passed).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// End-of-run behavior: under `--metrics`, prints the snapshot render
    /// to stderr; under `--serve`, binds the HTTP endpoint and parks the
    /// process so the run's metrics stay scrapeable.
    pub fn finish(self) {
        if self.metrics {
            eprint!("{}", self.telemetry.snapshot().render());
        }
        if let Some(addr) = self.serve {
            let endpoints = Endpoints::from_telemetry(self.telemetry.clone());
            match TelemetryServer::bind(addr.as_str(), endpoints) {
                Ok(server) => {
                    eprintln!(
                        "serving telemetry on {} (ctrl-c to stop)",
                        server.base_url()
                    );
                    loop {
                        std::thread::park();
                    }
                }
                Err(e) => {
                    eprintln!("failed to bind telemetry server on {addr}: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flag_value_finds_absent_present_and_missing_values() {
        let a = args(&["--only", "ha", "--metrics"]);
        assert_eq!(flag_value(&a, "--only"), Ok(Some("ha")));
        assert_eq!(flag_value(&a, "--serve"), Ok(None));
        let trailing = args(&["--metrics", "--only"]);
        assert!(flag_value(&trailing, "--only").is_err());
        let followed_by_flag = args(&["--only", "--metrics"]);
        assert!(flag_value(&followed_by_flag, "--only").is_err());
    }

    #[test]
    fn serve_without_an_address_is_a_usage_error() {
        assert!(SuiteTelemetry::from_args(&args(&["--serve"])).is_err());
        assert!(SuiteTelemetry::from_args(&args(&["--serve", "--metrics"])).is_err());
        let quiet = SuiteTelemetry::from_args(&args(&[])).expect("no flags parse");
        assert!(!quiet.telemetry().is_enabled());
        let metrics = SuiteTelemetry::from_args(&args(&["--metrics"])).expect("metrics parses");
        assert!(metrics.telemetry().is_enabled());
    }
}
