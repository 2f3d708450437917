//! A tiny argument parser: positionals, `--flag`, and `--key value`.
//!
//! The workspace avoids external dependencies (DESIGN.md); ELT tooling
//! needs nothing fancier than this.

/// Parsed-on-demand command-line options.
pub struct Opts {
    args: Vec<Option<String>>,
}

impl Opts {
    /// Wraps an argument list.
    pub fn new(args: &[String]) -> Opts {
        Opts {
            args: args.iter().cloned().map(Some).collect(),
        }
    }

    /// Takes the next unconsumed positional (non-`--`) argument. Flags
    /// may appear anywhere, so the scan skips over them.
    pub fn positional(&mut self) -> Option<String> {
        self.args
            .iter_mut()
            .find(|slot| slot.as_deref().is_some_and(|s| !s.starts_with("--")))?
            .take()
    }

    /// Takes `--name value`, if present.
    pub fn value(&mut self, name: &str) -> Option<String> {
        let at = self.args.iter().position(|s| s.as_deref() == Some(name))?;
        self.args[at] = None;
        let v = self.args.get_mut(at + 1)?.take();
        v
    }

    /// Takes `--name` or `--name=value`: `None` when the flag is
    /// absent, `Some(None)` for the bare flag, `Some(Some(v))` for the
    /// `=`-attached form. For flags whose value is optional (the space
    /// form would swallow the next positional).
    pub fn optional_value(&mut self, name: &str) -> Option<Option<String>> {
        let prefix = format!("{name}=");
        for slot in &mut self.args {
            match slot.as_deref() {
                Some(s) if s == name => {
                    slot.take();
                    return Some(None);
                }
                Some(s) if s.starts_with(&prefix) => {
                    let v = s[prefix.len()..].to_string();
                    slot.take();
                    return Some(Some(v));
                }
                _ => {}
            }
        }
        None
    }

    /// Takes `--name N` as a number, if present.
    ///
    /// # Errors
    ///
    /// A value that does not parse: `--name must be a number`.
    pub fn number<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("{name} must be a number")))
            .transpose()
    }

    /// Takes the boolean flag `--name`, returning whether it was present.
    pub fn flag(&mut self, name: &str) -> bool {
        match self.args.iter().position(|s| s.as_deref() == Some(name)) {
            Some(at) => {
                self.args[at] = None;
                true
            }
            None => false,
        }
    }

    /// Takes `--jobs N|auto` and normalizes it to a concrete worker
    /// count **here, once** — not at each call site: absent means 1
    /// (the pipeline on one worker), and both `auto` and `0` mean the
    /// machine's detected parallelism. Every subcommand that accepts
    /// `--jobs` goes through this, so no caller can hand a zero worker
    /// count to the engine or diverge on what `auto` means.
    ///
    /// # Errors
    ///
    /// A value that is neither a number nor `auto`.
    pub fn jobs(&mut self) -> Result<usize, String> {
        match self.value("--jobs").as_deref() {
            None => Ok(1),
            Some("auto") | Some("0") => Ok(transform_par::default_jobs()),
            Some(n) => {
                let n: usize = n.parse().map_err(|_| "--jobs must be a number or `auto`")?;
                Ok(n.max(1))
            }
        }
    }

    /// Errors on any argument that was never consumed.
    pub fn finish(self) -> Result<(), String> {
        let leftover: Vec<String> = self.args.into_iter().flatten().collect();
        if leftover.is_empty() {
            Ok(())
        } else {
            Err(format!("unrecognized arguments: {}", leftover.join(" ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(line: &str) -> Opts {
        Opts::new(
            &line
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn positionals_skip_flags() {
        let mut o = opts("check file.elt --mtm x86tso");
        assert_eq!(o.positional().as_deref(), Some("check"));
        assert_eq!(o.positional().as_deref(), Some("file.elt"));
        assert_eq!(o.value("--mtm").as_deref(), Some("x86tso"));
        o.finish().expect("all consumed");
    }

    #[test]
    fn flags_and_values_anywhere() {
        let mut o = opts("--quiet synthesize --bound 5");
        assert!(o.flag("--quiet"));
        assert_eq!(o.positional().as_deref(), Some("synthesize"));
        assert_eq!(o.value("--bound").as_deref(), Some("5"));
        assert!(!o.flag("--quiet"), "consumed once");
        o.finish().expect("all consumed");
    }

    #[test]
    fn leftovers_are_errors() {
        let mut o = opts("table1 --bogus");
        assert_eq!(o.positional().as_deref(), Some("table1"));
        let e = o.finish().unwrap_err();
        assert!(e.contains("--bogus"));
    }

    #[test]
    fn missing_value_is_none() {
        let mut o = opts("synthesize --bound");
        assert_eq!(o.positional().as_deref(), Some("synthesize"));
        assert_eq!(o.value("--bound"), None);
    }

    #[test]
    fn numbers_parse_once_or_name_their_flag() {
        let mut o = opts("synthesize --bound 5 --threads many");
        assert_eq!(o.number::<usize>("--bound"), Ok(Some(5)));
        assert_eq!(o.number::<usize>("--bound"), Ok(None), "consumed once");
        assert_eq!(
            o.number::<usize>("--threads"),
            Err("--threads must be a number".to_string())
        );
    }

    #[test]
    fn optional_values_take_bare_and_attached_forms() {
        let mut o = opts("synthesize --progress --bound 4");
        assert_eq!(o.optional_value("--progress"), Some(None));
        assert_eq!(o.positional().as_deref(), Some("synthesize"));
        assert_eq!(o.value("--bound").as_deref(), Some("4"));
        o.finish().expect("all consumed");

        let mut o = opts("synthesize --progress=json");
        assert_eq!(
            o.optional_value("--progress"),
            Some(Some("json".to_string()))
        );
        o.positional();
        o.finish().expect("all consumed");

        // Absent flag, and the bare form never swallows a neighbor.
        assert_eq!(opts("synthesize").optional_value("--progress"), None);
        let mut o = opts("--progress human");
        assert_eq!(o.optional_value("--progress"), Some(None));
        assert_eq!(o.positional().as_deref(), Some("human"));
    }

    #[test]
    fn jobs_normalizes_zero_and_auto_to_detected_parallelism() {
        let detected = transform_par::default_jobs();
        assert!(detected >= 1);
        for line in ["synthesize --jobs 0", "synthesize --jobs auto"] {
            let mut o = opts(line);
            assert_eq!(o.jobs(), Ok(detected), "{line}");
            o.positional();
            o.finish().expect("all consumed");
        }
        // Absent: sequential. Explicit numbers pass through, floored at 1.
        assert_eq!(opts("synthesize").jobs(), Ok(1));
        assert_eq!(opts("x --jobs 7").jobs(), Ok(7));
        // Nonsense is rejected.
        let e = opts("x --jobs many").jobs().unwrap_err();
        assert!(e.contains("--jobs"), "{e}");
    }
}
