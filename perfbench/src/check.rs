//! Answer fingerprints: one hash over everything a `/search` answer
//! list says (root, relevance, tree weight, keyword nodes, edges and
//! rendered text), computed the same way from the server's JSON and from
//! an in-process reference.

use banks_core::{Answer, Banks};
use banks_util::json::Json;

/// Fold a float so `-0` and `0` agree (the server prints `-0`, which
/// parses back as the integer 0).
fn num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v:?}")
    }
}

fn fnv(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn line(
    root: u64,
    relevance: f64,
    weight: f64,
    keyword_nodes: &[u64],
    edges: &[(u64, u64, f64)],
    rendered: &str,
) -> String {
    let edges: Vec<String> = edges
        .iter()
        .map(|&(f, t, w)| format!("{f}>{t}:{}", num(w)))
        .collect();
    format!(
        "{root}|{}|{}|{keyword_nodes:?}|{}|{rendered}\n",
        num(relevance),
        num(weight),
        edges.join(",")
    )
}

/// Fingerprint of in-process answers, rendered against `banks`.
pub fn of_answers(banks: &Banks, answers: &[Answer]) -> u64 {
    let mut text = String::new();
    for a in answers {
        let t = &a.tree;
        let kw: Vec<u64> = t.keyword_nodes.iter().map(|n| u64::from(n.0)).collect();
        let edges: Vec<(u64, u64, f64)> = t
            .edges
            .iter()
            .map(|&(f, to, w)| (u64::from(f.0), u64::from(to.0), w))
            .collect();
        text.push_str(&line(
            u64::from(t.root.0),
            a.relevance,
            t.weight,
            &kw,
            &edges,
            &banks.render_answer(a),
        ));
    }
    fnv(&text)
}

/// Fingerprint and epoch of a `/search` JSON body; `None` when the body
/// is not a well-formed answer list.
pub fn of_body(body: &str) -> Option<(u64, u64)> {
    let doc = Json::parse(body).ok()?;
    let epoch = doc.get("epoch")?.as_u64()?;
    let answers = doc.get("answers")?.as_arr()?;
    if doc.get("count")?.as_u64()? != answers.len() as u64 {
        return None;
    }
    let mut text = String::new();
    for a in answers {
        let ids = |field: &str| -> Option<Vec<u64>> {
            a.get(field)?.as_arr()?.iter().map(Json::as_u64).collect()
        };
        let edges: Option<Vec<(u64, u64, f64)>> = a
            .get("edges")?
            .as_arr()?
            .iter()
            .map(|e| {
                let e = e.as_arr()?;
                Some((
                    e.first()?.as_u64()?,
                    e.get(1)?.as_u64()?,
                    e.get(2)?.as_f64()?,
                ))
            })
            .collect();
        text.push_str(&line(
            a.get("root")?.get("id")?.as_u64()?,
            a.get("relevance")?.as_f64()?,
            a.get("weight")?.as_f64()?,
            &ids("keyword_nodes")?,
            &edges?,
            a.get("rendered")?.as_str()?,
        ));
    }
    Some((fnv(&text), epoch))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_fingerprint_reads_every_field() {
        let body = |rel: &str, rendered: &str| {
            format!(
                r#"{{"query":"a b","epoch":3,"count":1,"answers":[{{"rank":1,"relevance":{rel},"root":{{"id":7}},"weight":-0,"keyword_nodes":[7,9],"edges":[[7,9,2]],"rendered":"{rendered}"}}],"search_stats":{{}}}}"#
            )
        };
        let (fp, epoch) = of_body(&body("0.5", "x")).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(fp, fnv(&line(7, 0.5, 0.0, &[7, 9], &[(7, 9, 2.0)], "x")));
        assert_ne!(fp, of_body(&body("0.25", "x")).unwrap().0);
        assert_ne!(fp, of_body(&body("0.5", "y")).unwrap().0);
        assert_eq!(of_body(r#"{"error":"nope"}"#), None);
        assert_eq!(of_body("not json"), None);
    }
}
