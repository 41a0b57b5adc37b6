//! The flag machinery every subcommand shares. A flag is declared once, in
//! a [`Table`]: its name, optional alias, kind, default, help text and
//! setter. One loop ([`Subcommand::parse`]) reads argv against a
//! subcommand's tables, and [`Subcommand::usage`] renders the same tables.

use std::process::ExitCode;
use std::str::FromStr;

use crate::plumbing::Opts;

/// How a flag consumes argv.
pub enum Kind {
    /// Present or absent; its setter receives `true`.
    Switch,
    /// Takes the next token, shown in usage as this placeholder.
    Value(&'static str),
    /// The bare token a subcommand requires, named in errors by this noun.
    Positional(&'static str),
}

/// Stores a flag's token in the options: `Err(None)` reads as `bad <flag>`.
pub type Setter = fn(&mut Opts, &str) -> Result<(), Option<String>>;

pub struct Flag {
    /// `--name`, or the placeholder of a positional argument.
    pub name: &'static str,
    pub alias: Option<&'static str>,
    pub kind: Kind,
    /// Stored before argv is read, so the options start at the defaults.
    pub default: Option<&'static str>,
    pub help: &'static str,
    pub set: Setter,
}

/// Declares a flag: [`Flag::default`] gives it a default, struct update
/// an `alias`.
pub const fn flag(name: &'static str, kind: Kind, help: &'static str, set: Setter) -> Flag {
    Flag { name, alias: None, kind, default: None, help, set }
}

impl Flag {
    pub const fn default(mut self, value: &'static str) -> Flag {
        self.default = Some(value);
        self
    }

    /// The flag as usage shows it: `-o, --out <file>`.
    fn synopsis(&self) -> String {
        let alias = self.alias.map(|a| format!("{a}, ")).unwrap_or_default();
        match self.kind {
            Kind::Value(placeholder) => format!("{alias}{} {placeholder}", self.name),
            Kind::Switch | Kind::Positional(_) => format!("{alias}{}", self.name),
        }
    }

    fn store(&self, opts: &mut Opts, raw: &str) -> Result<(), String> {
        (self.set)(opts, raw).map_err(|e| e.unwrap_or_else(|| format!("bad {}", self.name)))
    }
}

/// Parses `raw` into `slot`, for a [`Setter`].
pub fn to<T: FromStr>(slot: &mut T, raw: &str) -> Result<(), Option<String>> {
    *slot = raw.parse().map_err(|_| None)?;
    Ok(())
}

/// [`to`] for an optional field.
pub fn some<T: FromStr>(slot: &mut Option<T>, raw: &str) -> Result<(), Option<String>> {
    *slot = Some(raw.parse().map_err(|_| None)?);
    Ok(())
}

/// Stores a value its own parser read, whose error is reported as is.
pub fn parsed<T>(slot: &mut Option<T>, value: Result<T, String>) -> Result<(), Option<String>> {
    *slot = Some(value.map_err(Some)?);
    Ok(())
}

/// `Err(message)` unless `holds`: one line per cross-flag check.
pub fn ensure(holds: bool, message: &str) -> Result<(), String> {
    holds.then_some(()).ok_or_else(|| message.to_string())
}

/// A titled group of flags.
pub struct Table {
    pub title: &'static str,
    pub flags: &'static [Flag],
}

impl Table {
    /// `title flags: --a <x> --b`, the one-line form.
    pub fn synopsis(&self) -> String {
        let flags: Vec<String> = self.flags.iter().map(Flag::synopsis).collect();
        format!("{} flags: {}", self.title, flags.join(" "))
    }
}

/// An entry of the subcommand table.
pub struct Subcommand {
    pub name: &'static str,
    /// Its line in the top-level usage.
    pub summary: &'static str,
    /// The flags it takes, in usage order.
    pub tables: &'static [&'static Table],
    /// Checks that span flags, after argv is read.
    pub validate: fn(&Opts) -> Result<(), String>,
    pub run: fn(&Opts) -> Result<(), String>,
}

impl Subcommand {
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.tables.iter().flat_map(|t| t.flags)
    }

    /// Reads `args` into options: `Ok(None)` when they ask for help.
    pub fn parse(&self, args: &[String]) -> Result<Option<Opts>, String> {
        let mut opts = Opts::default();
        for flag in self.flags() {
            flag.default.map_or(Ok(()), |value| flag.store(&mut opts, value))?;
        }
        let positional = self.flags().find_map(|f| match f.kind {
            Kind::Positional(noun) => Some((f, noun)),
            _ => None,
        });
        let (mut tokens, mut positional_seen) = (args.iter(), false);
        while let Some(token) = tokens.next() {
            if token == "--help" || token == "-h" {
                return Ok(None);
            }
            match (self.flags().find(|f| f.name == token || f.alias == Some(token)), positional) {
                (Some(f @ Flag { kind: Kind::Value(_), .. }), _) => {
                    let value = tokens.next().ok_or_else(|| format!("{} needs a value", f.name))?;
                    f.store(&mut opts, value)?;
                }
                (Some(f @ Flag { kind: Kind::Switch, .. }), _) => f.store(&mut opts, "true")?,
                (_, Some((flag, noun))) if !token.starts_with('-') => {
                    ensure(!positional_seen, &format!("{} takes exactly one {noun}", self.name))?;
                    positional_seen = true;
                    flag.store(&mut opts, token)?;
                }
                _ => return Err(format!("unknown flag {token} for `{}`", self.name)),
            }
        }
        if let Some((_, noun)) = positional {
            ensure(positional_seen, &format!("{} needs a {noun}", self.name))?;
        }
        (self.validate)(&opts)?;
        Ok(Some(opts))
    }

    /// The `--help` text, rendered from the tables.
    pub fn usage(&self) -> String {
        let width = self.flags().map(|f| f.synopsis().len()).max().unwrap_or(0);
        let positional = self.flags().find(|f| matches!(f.kind, Kind::Positional(_)));
        let positional = positional.map(|f| format!(" {}", f.name)).unwrap_or_default();
        let mut out =
            format!("usage: dnsnoise {}{positional} [flags]\n\n{}\n", self.name, self.summary);
        for table in self.tables {
            out += &format!("\n{} flags:\n", table.title);
            for flag in table.flags {
                let default = flag.default.map(|d| format!(" (default: {d})")).unwrap_or_default();
                let help = wrap(&format!("{}{default}", flag.help), width + 4);
                out += &format!("  {:<width$}  {help}\n", flag.synopsis());
            }
        }
        out
    }

    /// Parses argv, then runs or prints help. Usage follows only an
    /// argument error; a failed run prints just its error.
    pub fn main(&self, args: &[String]) -> ExitCode {
        let outcome = match self.parse(args) {
            Ok(Some(opts)) => (self.run)(&opts),
            Ok(None) => {
                print!("{}", self.usage());
                Ok(())
            }
            Err(e) => Err(format!("{e}\n\n{}", self.usage())),
        };
        let Err(e) = outcome else { return ExitCode::SUCCESS };
        eprintln!("{e}");
        ExitCode::FAILURE
    }
}

/// Fills `text` into lines of at most 80 columns, continuation lines
/// indented to column `indent`.
fn wrap(text: &str, indent: usize) -> String {
    let (mut out, mut column) = (String::new(), indent);
    for word in text.split_whitespace() {
        if column > indent && column + 1 + word.len() > 80 {
            out += &format!("\n{:indent$}", "");
            column = indent;
        } else if column > indent {
            out.push(' ');
            column += 1;
        }
        out += word;
        column += word.len();
    }
    out
}
