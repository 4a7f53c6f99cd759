//! serve-mix's seeded request stream and its closed-form checks.
//!
//! About half the requests name modules of a small typed graph under
//! the gateway's source root (`run` of an untyped top module, `check`
//! of a typed one), so they share work through the store. The other
//! half carry inline sources with a per-request constant, so no source
//! repeats within a run and none hits the store.

use crate::sys::Rng;
use lagoon_diag::json_string;
use lagoon_server::json::{self, Json};

/// Request kinds, in metric order.
pub const KINDS: [&str; 4] = ["run_named", "run_inline", "expand_inline", "check_named"];

/// The `phases` buckets every daemon response carries.
pub const PHASES: [&str; 6] = ["read", "expand", "check", "compile", "load", "run"];

/// What a correct response holds.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// `"ok":true` and this printed `value`.
    Value(String),
    /// `"ok":true` (a typecheck).
    Ok,
    /// `"ok":true` and this many expanded `forms`, holding every needle.
    Forms(usize, Vec<String>),
}

/// One request of the stream.
#[derive(Clone, Debug)]
pub struct Req {
    /// Index into [`KINDS`].
    pub kind: usize,
    /// HTTP target.
    pub target: &'static str,
    /// JSON body.
    pub body: String,
    /// The correct response.
    pub expect: Expect,
}

const fn tri(n: i64) -> i64 {
    n * (n + 1) / 2
}

const fn squares(n: i64) -> i64 {
    n * (n + 1) * (2 * n + 1) / 6
}

/// The named modules: three typed modules in a chain and three untyped
/// top modules, with each top's value in closed form.
pub fn named_modules() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "mix-tri",
            "#lang typed/lagoon\n\
             (: tri : Integer Integer -> Integer)\n\
             (define (tri n acc) (if (= n 0) acc (tri (- n 1) (+ acc n))))\n\
             (provide tri)\n",
        ),
        (
            "mix-sq",
            "#lang typed/lagoon\n(require mix-tri)\n\
             (: sq : Integer Integer -> Integer)\n\
             (define (sq n acc) (if (= n 0) acc (sq (- n 1) (+ acc (* n n)))))\n\
             (: both : Integer -> Integer)\n\
             (define (both n) (+ (tri n 0) (sq n 0)))\n\
             (provide sq both)\n",
        ),
        (
            "mix-cube",
            "#lang typed/lagoon\n(require mix-sq)\n\
             (: cubes : Integer Integer -> Integer)\n\
             (define (cubes n acc) (if (= n 0) acc (cubes (- n 1) (+ acc (* n (* n n))))))\n\
             (: all3 : Integer -> Integer)\n\
             (define (all3 n) (+ (both n) (cubes n 0)))\n\
             (provide all3)\n",
        ),
        (
            "mix-top-a",
            "#lang lagoon\n(require mix-tri)\n(tri 3000 0)\n",
        ),
        ("mix-top-b", "#lang lagoon\n(require mix-sq)\n(both 1500)\n"),
        (
            "mix-top-c",
            "#lang lagoon\n(require mix-cube)\n(all3 1000)\n",
        ),
    ]
}

const TOPS: [(&str, i64); 3] = [
    ("mix-top-a", tri(3000)),
    ("mix-top-b", tri(1500) + squares(1500)),
    (
        "mix-top-c",
        tri(1000) + squares(1000) + tri(1000) * tri(1000),
    ),
];

const TYPED: [&str; 3] = ["mix-tri", "mix-sq", "mix-cube"];

fn inline(source: &str) -> String {
    format!("{{\"source\":{}}}", json_string(source))
}

/// Request `i` of the stream for `seed`: a pure function of both.
pub fn request(seed: u64, i: u64) -> Req {
    let mut rng = Rng::new(seed, i + 1);
    let kind = rng.range(0, 4) as usize;
    // a per-request constant: unique within a run, shifted by the seed
    let k = (seed % 100_000) as i64 * 10_000_000 + i as i64;
    match KINDS[kind] {
        "run_named" => {
            let (module, value) = TOPS[rng.range(0, 3) as usize];
            Req {
                kind,
                target: "/v1/run",
                body: format!("{{\"module\":{}}}", json_string(module)),
                expect: Expect::Value(value.to_string()),
            }
        }
        "check_named" => Req {
            kind,
            target: "/v1/check",
            body: format!(
                "{{\"module\":{}}}",
                json_string(TYPED[rng.range(0, 3) as usize])
            ),
            expect: Expect::Ok,
        },
        "run_inline" => {
            let (source, value) = match rng.range(0, 3) {
                0 => {
                    let n = rng.range(1000, 4000) as i64;
                    (
                        format!(
                            "#lang lagoon\n\
                             (define (loop i acc) (if (= i 0) acc (loop (- i 1) (+ acc i))))\n\
                             (loop {n} {k})\n"
                        ),
                        k + tri(n),
                    )
                }
                1 => {
                    let n = rng.range(1000, 4000) as i64;
                    (
                        format!(
                            "#lang typed/lagoon\n\
                             (: loop : Integer Integer -> Integer)\n\
                             (define (loop i acc) (if (= i 0) acc (loop (- i 1) (+ acc i))))\n\
                             (loop {n} {k})\n"
                        ),
                        k + tri(n),
                    )
                }
                _ => {
                    let a = rng.range(1, 50) as i64;
                    let d = rng.range(1, 7) as i64;
                    let hi = rng.range(2000, 8000) as i64;
                    let m = (hi - a) / d + 1;
                    (
                        format!(
                            "#lang lagoon\n\
                             (define (walk x acc) (if (> x {hi}) acc (walk (+ x {d}) (+ acc x))))\n\
                             (walk {a} {k})\n"
                        ),
                        k + m * a + d * m * (m - 1) / 2,
                    )
                }
            };
            Req {
                kind,
                target: "/v1/run",
                body: inline(&source),
                expect: Expect::Value(value.to_string()),
            }
        }
        _ => {
            let b = rng.range(1, 1000) as i64;
            let (source, forms) = if rng.range(0, 2) == 0 {
                (format!("#lang lagoon\n(let ((x {k})) (+ x {b}))\n"), 1)
            } else {
                (
                    format!("#lang lagoon\n(define (f y) (* y {k}))\n(f {b})\n"),
                    2,
                )
            };
            Req {
                kind,
                target: "/v1/expand",
                body: inline(&source),
                expect: Expect::Forms(forms, vec![format!("(quote {k})"), format!("(quote {b})")]),
            }
        }
    }
}

/// Whether requests of kind `kind` name a module of the graph, and so
/// share work through the store, rather than carry an inline source.
pub fn is_named(kind: usize) -> bool {
    KINDS[kind].ends_with("_named")
}

/// The indices of the next `count` requests, from `*next` on, of the
/// stream for `seed` that are in the named half (`named`) or in the
/// inline half; `*next` moves past the last. The other half's requests
/// in between are skipped and never sent.
pub fn indices_of_half(seed: u64, next: &mut u64, count: usize, named: bool) -> Vec<u64> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        if is_named(request(seed, *next).kind) == named {
            out.push(*next);
        }
        *next += 1;
    }
    out
}

/// Checks one response against the request's expectation.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check(req: &Req, status: u16, body: &str) -> Result<Json, String> {
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    let parsed = json::parse(body).map_err(|e| format!("bad JSON ({e}): {body}"))?;
    if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("not ok: {body}"));
    }
    match &req.expect {
        Expect::Ok => {}
        Expect::Value(want) => {
            let got = parsed.get("value").and_then(Json::as_str);
            if got != Some(want.as_str()) {
                return Err(format!("value {got:?}, expected {want}"));
            }
        }
        Expect::Forms(count, needles) => {
            let forms: Vec<&str> = match parsed.get("forms") {
                Some(Json::Arr(items)) => items.iter().filter_map(Json::as_str).collect(),
                _ => Vec::new(),
            };
            if forms.len() != *count {
                return Err(format!("{} forms, expected {count}", forms.len()));
            }
            let text = forms.join(" ");
            if let Some(missing) = needles.iter().find(|n| !text.contains(n.as_str())) {
                return Err(format!("expansion lacks {missing}: {text}"));
            }
        }
    }
    Ok(parsed)
}

/// The per-phase milliseconds of a checked response.
pub fn phases(response: &Json) -> [f64; 6] {
    let mut out = [0.0; 6];
    if let Some(p) = response.get("phases") {
        for (slot, name) in out.iter_mut().zip(PHASES) {
            if let Some(Json::Num(ms)) = p.get(name) {
                *slot = *ms;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: u64) -> Vec<String> {
        (0..n).map(|i| request(seed, i).body).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        assert_eq!(stream(7, 2000), stream(7, 2000));
    }

    #[test]
    fn another_seed_changes_the_inline_programs() {
        let (a, b) = (stream(1, 400), stream(2, 400));
        let inline = |s: &[String]| -> Vec<String> {
            s.iter().filter(|b| b.contains("source")).cloned().collect()
        };
        let (ia, ib) = (inline(&a), inline(&b));
        assert!(!ia.is_empty() && !ib.is_empty());
        assert!(
            ia.iter().all(|s| !ib.contains(s)),
            "an inline source survived a seed change"
        );
    }

    #[test]
    fn no_inline_source_repeats_within_a_run() {
        let mut inline: Vec<String> = stream(3, 30_000)
            .into_iter()
            .filter(|b| b.contains("source"))
            .collect();
        let n = inline.len();
        inline.sort();
        inline.dedup();
        assert_eq!(inline.len(), n);
    }

    #[test]
    fn the_mix_is_about_half_named() {
        let named = (0..4000).filter(|&i| is_named(request(9, i).kind)).count();
        assert!((1800..2200).contains(&named), "{named} of 4000 named");
    }

    #[test]
    fn a_half_holds_only_its_own_kinds() {
        let mut next = 100;
        let named = indices_of_half(4, &mut next, 50, true);
        let inline = indices_of_half(4, &mut next, 50, false);
        assert!(named.iter().all(|&i| matches!(request(4, i).kind, 0 | 3)));
        assert!(inline.iter().all(|&i| matches!(request(4, i).kind, 1 | 2)));
        assert!(named
            .windows(2)
            .chain(inline.windows(2))
            .all(|w| w[0] < w[1]));
        assert!(named[0] >= 100 && named[49] < inline[0] && inline[49] < next);
    }

    #[test]
    fn the_checker_rejects_wrong_values() {
        let req = Req {
            kind: 0,
            target: "/v1/run",
            body: String::new(),
            expect: Expect::Value("4501500".into()),
        };
        assert!(check(&req, 200, r#"{"ok":true,"value":"4501500"}"#).is_ok());
        assert!(check(&req, 200, r#"{"ok":true,"value":"4501501"}"#).is_err());
        assert!(check(&req, 200, r#"{"ok":false,"error":{}}"#).is_err());
        assert!(check(&req, 503, r#"{"ok":true,"value":"4501500"}"#).is_err());
        let expand = Req {
            expect: Expect::Forms(1, vec!["(quote 5)".into()]),
            ..req
        };
        assert!(check(&expand, 200, r#"{"ok":true,"forms":["(quote 5)"]}"#).is_ok());
        assert!(check(&expand, 200, r#"{"ok":true,"forms":["(quote 6)"]}"#).is_err());
    }

    #[test]
    fn closed_forms_match_direct_sums() {
        let direct = |n: i64, f: fn(i64) -> i64| (1..=n).map(f).sum::<i64>();
        assert_eq!(tri(3000), direct(3000, |x| x));
        assert_eq!(squares(1500), direct(1500, |x| x * x));
        assert_eq!(tri(1000) * tri(1000), direct(1000, |x| x * x * x));
        // the stepped walk: a, a+d, ... up to hi
        let (a, d, hi) = (7i64, 3i64, 2000i64);
        let m = (hi - a) / d + 1;
        let walked: i64 = (0..).map(|j| a + j * d).take_while(|x| *x <= hi).sum();
        assert_eq!(m * a + d * m * (m - 1) / 2, walked);
    }
}
