//! The `/v1/score` wire format, one copy shared by `pge-serve` and
//! `pge-gateway` so clients cannot tell which tier answered: request
//! decoder, score renderer, and the `{"error": ...}` body.

use crate::json::{self, Json};

/// One triple to score, as raw text.
#[derive(Debug, Clone)]
pub struct ScoreItem {
    pub title: String,
    pub attr: String,
    pub value: String,
}

/// Outcome for one item. `None` fields mean the attribute was unknown
/// to the model (no relation vector exists to score against).
#[derive(Debug, Clone, PartialEq)]
pub struct ItemScore {
    pub plausibility: Option<f32>,
    pub is_error: Option<bool>,
}

impl ItemScore {
    /// The answer for plausibility `p` (`None`: unknown attribute):
    /// an error when `p` ≤ `threshold`.
    pub fn judge(p: Option<f32>, threshold: f32) -> Self {
        ItemScore {
            plausibility: p,
            is_error: p.map(|p| p <= threshold),
        }
    }
}

/// Decode a `/v1/score` body: a JSON array of `{title, attr, value}`
/// string triples. The strings move out of the parsed tree rather than
/// being copied. `Err` carries the message a 400 answers with.
pub fn decode_items(body: &[u8]) -> Result<Vec<ScoreItem>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let Json::Arr(raw_items) = json::parse(text).map_err(|e| e.to_string())? else {
        return Err("expected a JSON array of {title, attr, value}".into());
    };
    raw_items
        .into_iter()
        .enumerate()
        .map(|(i, it)| {
            // First occurrence of a key wins, as with `Json::get`.
            let mut fields = [None, None, None];
            if let Json::Obj(pairs) = it {
                for (k, v) in pairs {
                    if let Some(slot) = ["title", "attr", "value"].iter().position(|f| *f == k) {
                        fields[slot].get_or_insert(v);
                    }
                }
            }
            match fields {
                [Some(Json::Str(title)), Some(Json::Str(attr)), Some(Json::Str(value))] => {
                    Ok(ScoreItem { title, attr, value })
                }
                _ => Err(format!(
                    "item {i}: expected string fields title, attr, value"
                )),
            }
        })
        .collect()
}

/// Render the response body straight into one buffer, byte-identical
/// to rendering the equivalent [`Json`] tree (non-finite → `null`).
pub fn render_scores(scores: &[ItemScore]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(2 + 48 * scores.len());
    out.push('[');
    for (i, s) in scores.iter().enumerate() {
        out.push_str(if i > 0 { ",{" } else { "{" });
        out.push_str("\"plausibility\":");
        match s.plausibility {
            // f64 formatting, as `Json::Num` renders it.
            Some(p) if p.is_finite() => write!(out, "{}", p as f64).expect("String write"),
            _ => out.push_str("null"),
        }
        out.push_str(match s.is_error {
            Some(true) => ",\"is_error\":true",
            Some(false) => ",\"is_error\":false",
            None => ",\"is_error\":null",
        });
        if s.plausibility.is_none() {
            out.push_str(",\"detail\":\"unknown attribute\"");
        }
        out.push('}');
    }
    out.push(']');
    out
}

/// The body of every error response: `{"error": message}`.
pub fn error_json(message: &str) -> String {
    Json::Obj(vec![("error".into(), Json::Str(message.into()))]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `Json`-tree rendering both tiers used before the direct
    /// renderer; kept only as the byte-identity reference.
    fn tree_render(scores: &[ItemScore]) -> String {
        Json::Arr(
            scores
                .iter()
                .map(|s| {
                    let mut pairs = vec![
                        (
                            "plausibility".to_string(),
                            s.plausibility.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        (
                            "is_error".to_string(),
                            s.is_error.map_or(Json::Null, Json::Bool),
                        ),
                    ];
                    if s.plausibility.is_none() {
                        pairs.push(("detail".to_string(), Json::Str("unknown attribute".into())));
                    }
                    Json::Obj(pairs)
                })
                .collect(),
        )
        .to_string()
    }

    fn scored(p: f32) -> ItemScore {
        ItemScore {
            plausibility: Some(p),
            is_error: Some(p <= 0.0),
        }
    }

    #[test]
    fn renderer_is_byte_identical_to_tree_rendering() {
        let unknown = ItemScore {
            plausibility: None,
            is_error: None,
        };
        let mut scores = vec![unknown.clone()];
        for p in [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1.0,
            -1.25,
            0.1,
            1e-20,
        ] {
            scores.push(scored(p));
        }
        // A known score whose verdict is missing still renders.
        scores.push(ItemScore {
            plausibility: Some(2.5),
            is_error: None,
        });
        // Random bit patterns (every class of f32) and random scores
        // in the range a trained model produces, from a fixed xorshift.
        let mut x: u32 = 0x5c0e_1234;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            scores.push(scored(f32::from_bits(x)));
            scores.push(scored((x >> 8) as f32 / (1 << 24) as f32 * 24.0 - 12.0));
        }
        for s in &scores {
            let one = std::slice::from_ref(s);
            assert_eq!(render_scores(one), tree_render(one), "{s:?}");
        }
        assert_eq!(render_scores(&scores), tree_render(&scores));
        assert_eq!(render_scores(&[]), "[]");
        assert_eq!(render_scores(&[unknown.clone(), unknown]), {
            let u = r#"{"plausibility":null,"is_error":null,"detail":"unknown attribute"}"#;
            format!("[{u},{u}]")
        });
    }

    #[test]
    fn decoder_moves_fields_and_keeps_first_duplicate() {
        let body = r#"[{"attr":"flavor","title":"chips","value":"salt","extra":1},
                       {"title":"a","title":"ignored","attr":"b","value":"é"}]"#;
        let items = decode_items(body.as_bytes()).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(
            (&*items[0].title, &*items[0].attr, &*items[0].value),
            ("chips", "flavor", "salt")
        );
        assert_eq!(
            (&*items[1].title, &*items[1].attr, &*items[1].value),
            ("a", "b", "é")
        );
    }

    #[test]
    fn decoder_error_messages() {
        let err = |body: &[u8]| decode_items(body).unwrap_err();
        assert_eq!(err(b"\xff[]"), "body is not UTF-8");
        assert_eq!(err(b"{not json"), "invalid JSON at byte 1: expected '\"'");
        assert_eq!(err(b"{}"), "expected a JSON array of {title, attr, value}");
        assert_eq!(
            err(br#"[{"title":"a","attr":"b","value":"c"},{"title":"a","attr":"b"}]"#),
            "item 1: expected string fields title, attr, value"
        );
        assert_eq!(
            err(br#"[{"title":"a","attr":"b","value":"c"},{"title":"a","attr":"b","value":3}]"#),
            "item 1: expected string fields title, attr, value"
        );
        assert_eq!(
            err(br#"[["title","attr","value"]]"#),
            "item 0: expected string fields title, attr, value"
        );
        assert!(decode_items(b"[]").unwrap().is_empty());
    }
}
