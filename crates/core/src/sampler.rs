//! The [`Sampler`] surface: which reverse-process solver runs, plus the one
//! spec parser/formatter shared by every entry point.
//!
//! CLI flags (`--sampler pndm:6`), serve JSONL requests (`"sampler":
//! "refine:4"`), and the loadtest schedule all speak the same little spec
//! grammar, round-tripped through [`std::str::FromStr`] /
//! [`std::fmt::Display`]:
//!
//! ```text
//! ddpm                      full T-step ancestral sampling
//! ddim:STEPS[:ETA]          DDIM, eta defaults to 0.0 (deterministic)
//! pndm:STEPS[:ORDER]        pseudo-numerical multistep, order defaults to 4
//! refine:STEPS[:STRENGTH]   noised-prior refine chain, strength defaults to 0.5
//! ```
//!
//! Specs are checkpoint-independent: a spec never mentions a model.

use crate::error::{PristiError, Result};
use st_diffusion::process::{self, GenerativeProcess};
use std::fmt;
use std::str::FromStr;

/// Default DDIM stochasticity when the spec omits it.
pub const DEFAULT_DDIM_ETA: f64 = 0.0;
/// Default PNDM multistep order when the spec omits it.
pub const DEFAULT_PNDM_ORDER: usize = 4;
/// Default refine noising strength when the spec omits it.
pub const DEFAULT_REFINE_STRENGTH: f64 = 0.5;

/// How the reverse process is sampled.
///
/// Each variant selects a [`GenerativeProcess`] implementation (see
/// [`Sampler::solver`]); the enum itself is the serializable, comparable
/// *spec*. Marked `#[non_exhaustive]`: downstream matches need a wildcard
/// arm so future solvers (flow matching is on the roadmap) are not breaking
/// changes.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Sampler {
    /// Full `T`-step ancestral DDPM sampling (Algorithm 2).
    #[default]
    Ddpm,
    /// Accelerated DDIM sampling (the efficiency direction named in the
    /// paper's conclusion): `steps` network evaluations instead of `T`, with
    /// `eta` interpolating between deterministic DDIM (0.0) and ancestral
    /// DDPM noise levels (1.0). 8–12 steps typically match the full loop
    /// closely.
    Ddim {
        /// Number of denoising steps (network evaluations).
        steps: usize,
        /// Stochasticity knob `η ∈ [0, 1]`.
        eta: f64,
    },
    /// Pseudo-numerical linear-multistep sampling ([`process::Pndm`], the
    /// FastSTI direction): deterministic DDIM transfer map over an
    /// Adams–Bashforth ε-history combination. ~6 steps track the full chain;
    /// `order` 1 degenerates to `Ddim { eta: 0.0 }` bitwise.
    Pndm {
        /// Number of denoising steps (network evaluations).
        steps: usize,
        /// Linear-multistep order, `1..=4`.
        order: usize,
    },
    /// Two-stage refine sampling ([`process::Refine`], the RDPI direction):
    /// the interpolated conditional serves as a deterministic prior estimate,
    /// noised to `strength·T` and refined by a short deterministic chain.
    /// 3–4 steps at strength ≈ 0.5 track the full chain.
    Refine {
        /// Number of denoising steps (network evaluations).
        steps: usize,
        /// Fraction of the schedule the prior estimate is noised to, `(0, 1]`.
        strength: f64,
    },
}

impl Sampler {
    /// Check the spec for degenerate values, with the same
    /// [`PristiError::DegenerateConfig`] contract everywhere a sampler enters
    /// the system (every impute entry point, the serve admission path, CLI
    /// parsing).
    pub fn validate(&self) -> Result<()> {
        let deg = |msg: String| Err(PristiError::DegenerateConfig(msg));
        match *self {
            Sampler::Ddpm => Ok(()),
            Sampler::Ddim { steps, eta } => {
                if steps < 1 {
                    return deg("DDIM needs at least one step".into());
                }
                if !eta.is_finite() || eta < 0.0 {
                    return deg(format!("DDIM eta must be finite and non-negative, got {eta}"));
                }
                Ok(())
            }
            Sampler::Pndm { steps, order } => {
                if steps < 1 {
                    return deg("PNDM needs at least one step".into());
                }
                if !(1..=4).contains(&order) {
                    return deg(format!("PNDM order must be in 1..=4, got {order}"));
                }
                Ok(())
            }
            Sampler::Refine { steps, strength } => {
                if steps < 1 {
                    return deg("refine needs at least one step".into());
                }
                if !strength.is_finite() || strength <= 0.0 || strength > 1.0 {
                    return deg(format!(
                        "refine strength must be in (0, 1], got {strength}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// Construct the [`GenerativeProcess`] this spec names. The returned
    /// solver is fresh (no multistep history); drivers still call
    /// [`GenerativeProcess::reset`] before each chain.
    pub fn solver(&self) -> Box<dyn GenerativeProcess> {
        match *self {
            Sampler::Ddpm => Box::new(process::Ddpm),
            Sampler::Ddim { steps, eta } => Box::new(process::Ddim::new(steps, eta)),
            Sampler::Pndm { steps, order } => Box::new(process::Pndm::new(steps, order)),
            Sampler::Refine { steps, strength } => Box::new(process::Refine::new(steps, strength)),
        }
    }
}

impl fmt::Display for Sampler {
    /// The canonical spec string; parameters equal to their defaults are
    /// omitted, so `Ddim { steps: 10, eta: 0.0 }` prints as `ddim:10` and
    /// round-trips through [`FromStr`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Sampler::Ddpm => write!(f, "ddpm"),
            Sampler::Ddim { steps, eta } => {
                if eta == DEFAULT_DDIM_ETA {
                    write!(f, "ddim:{steps}")
                } else {
                    write!(f, "ddim:{steps}:{eta:?}")
                }
            }
            Sampler::Pndm { steps, order } => {
                if order == DEFAULT_PNDM_ORDER {
                    write!(f, "pndm:{steps}")
                } else {
                    write!(f, "pndm:{steps}:{order}")
                }
            }
            Sampler::Refine { steps, strength } => {
                if strength == DEFAULT_REFINE_STRENGTH {
                    write!(f, "refine:{steps}")
                } else {
                    write!(f, "refine:{steps}:{strength:?}")
                }
            }
        }
    }
}

impl FromStr for Sampler {
    type Err = PristiError;

    /// Parse a spec string (see the module docs for the grammar). The parsed
    /// spec is [`validate`](Sampler::validate)d, so a syntactically valid but
    /// degenerate spec (e.g. `ddim:0`) is rejected here too.
    ///
    /// ```
    /// use pristi_core::Sampler;
    ///
    /// // The full grammar: ddpm | ddim:K[:eta] | pndm:K[:order] | refine:K[:strength].
    /// assert_eq!("ddpm".parse::<Sampler>().unwrap(), Sampler::Ddpm);
    /// assert_eq!(
    ///     "ddim:8".parse::<Sampler>().unwrap(),
    ///     Sampler::Ddim { steps: 8, eta: 0.0 },
    /// );
    /// assert_eq!(
    ///     "pndm:6:2".parse::<Sampler>().unwrap(),
    ///     Sampler::Pndm { steps: 6, order: 2 },
    /// );
    /// assert_eq!(
    ///     "refine:4".parse::<Sampler>().unwrap(),
    ///     Sampler::Refine { steps: 4, strength: 0.5 },
    /// );
    /// // Specs round-trip through Display.
    /// assert_eq!("pndm:6:2".parse::<Sampler>().unwrap().to_string(), "pndm:6:2");
    /// // Degenerate specs are typed errors, not panics.
    /// assert!("ddim:0".parse::<Sampler>().is_err());
    /// assert!("warp:3".parse::<Sampler>().is_err());
    /// ```
    fn from_str(s: &str) -> Result<Self> {
        let deg = |msg: String| PristiError::DegenerateConfig(msg);
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let arg1 = parts.next();
        let arg2 = parts.next();
        if parts.next().is_some() {
            return Err(deg(format!("sampler spec {s:?} has too many `:` fields")));
        }
        let steps = |a: Option<&str>| -> Result<usize> {
            let a = a.ok_or_else(|| deg(format!("sampler spec {s:?} is missing a step count")))?;
            a.parse::<usize>()
                .map_err(|_| deg(format!("sampler spec {s:?}: bad step count {a:?}")))
        };
        let sampler = match head {
            "ddpm" => {
                if arg1.is_some() {
                    return Err(deg(format!("sampler spec {s:?}: ddpm takes no parameters")));
                }
                Sampler::Ddpm
            }
            "ddim" => {
                let eta = match arg2 {
                    None => DEFAULT_DDIM_ETA,
                    Some(a) => a
                        .parse::<f64>()
                        .map_err(|_| deg(format!("sampler spec {s:?}: bad eta {a:?}")))?,
                };
                Sampler::Ddim { steps: steps(arg1)?, eta }
            }
            "pndm" => {
                let order = match arg2 {
                    None => DEFAULT_PNDM_ORDER,
                    Some(a) => a
                        .parse::<usize>()
                        .map_err(|_| deg(format!("sampler spec {s:?}: bad order {a:?}")))?,
                };
                Sampler::Pndm { steps: steps(arg1)?, order }
            }
            "refine" => {
                let strength = match arg2 {
                    None => DEFAULT_REFINE_STRENGTH,
                    Some(a) => a
                        .parse::<f64>()
                        .map_err(|_| deg(format!("sampler spec {s:?}: bad strength {a:?}")))?,
                };
                Sampler::Refine { steps: steps(arg1)?, strength }
            }
            other => {
                return Err(deg(format!(
                    "unknown sampler {other:?} (expected ddpm, ddim:K[:ETA], pndm:K[:ORDER], or refine:K[:STRENGTH])"
                )))
            }
        };
        sampler.validate()?;
        Ok(sampler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_display_and_parse() {
        let cases = [
            Sampler::Ddpm,
            Sampler::Ddim { steps: 10, eta: 0.0 },
            Sampler::Ddim { steps: 4, eta: 0.5 },
            Sampler::Pndm { steps: 6, order: 4 },
            Sampler::Pndm { steps: 6, order: 2 },
            Sampler::Refine { steps: 4, strength: 0.5 },
            Sampler::Refine { steps: 3, strength: 0.25 },
        ];
        for s in cases {
            let spec = s.to_string();
            let back: Sampler = spec.parse().unwrap();
            assert_eq!(back, s, "spec {spec:?} did not round-trip");
        }
    }

    #[test]
    fn canonical_specs_omit_default_parameters() {
        assert_eq!(Sampler::Ddim { steps: 10, eta: 0.0 }.to_string(), "ddim:10");
        assert_eq!(Sampler::Ddim { steps: 10, eta: 0.5 }.to_string(), "ddim:10:0.5");
        assert_eq!(Sampler::Pndm { steps: 6, order: 4 }.to_string(), "pndm:6");
        assert_eq!(Sampler::Refine { steps: 4, strength: 0.5 }.to_string(), "refine:4");
    }

    #[test]
    fn parse_accepts_the_documented_grammar() {
        assert_eq!("ddpm".parse::<Sampler>().unwrap(), Sampler::Ddpm);
        assert_eq!(
            "ddim:10:0.0".parse::<Sampler>().unwrap(),
            Sampler::Ddim { steps: 10, eta: 0.0 }
        );
        assert_eq!("pndm:6".parse::<Sampler>().unwrap(), Sampler::Pndm { steps: 6, order: 4 });
        assert_eq!(
            "refine:4".parse::<Sampler>().unwrap(),
            Sampler::Refine { steps: 4, strength: 0.5 }
        );
    }

    #[test]
    fn parse_rejects_malformed_and_degenerate_specs() {
        for bad in [
            "", "ddqm", "ddpm:3", "ddim", "ddim:x", "ddim:0", "ddim:4:-1", "ddim:4:nope",
            "pndm:0", "pndm:6:0", "pndm:6:5", "refine:0", "refine:4:0", "refine:4:1.5",
            "ddim:4:0.0:9",
        ] {
            let err = bad.parse::<Sampler>().unwrap_err();
            assert!(
                matches!(err, PristiError::DegenerateConfig(_)),
                "spec {bad:?} should fail with DegenerateConfig, got {err:?}"
            );
        }
    }

    #[test]
    fn validate_matches_parse_rules() {
        assert!(Sampler::Ddim { steps: 4, eta: f64::NAN }.validate().is_err());
        assert!(Sampler::Pndm { steps: 6, order: 0 }.validate().is_err());
        assert!(Sampler::Refine { steps: 4, strength: 0.0 }.validate().is_err());
        assert!(Sampler::Refine { steps: 4, strength: 1.0 }.validate().is_ok());
    }

    #[test]
    fn solver_op_labels_are_distinct() {
        let labels: Vec<&str> = [
            Sampler::Ddpm,
            Sampler::Ddim { steps: 4, eta: 0.0 },
            Sampler::Pndm { steps: 4, order: 4 },
            Sampler::Refine { steps: 4, strength: 0.5 },
        ]
        .iter()
        .map(|s| s.solver().op_label())
        .collect();
        assert_eq!(labels, ["p_sample_step", "ddim_step", "pndm_step", "refine_step"]);
    }
}
