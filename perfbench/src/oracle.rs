//! Request bodies and the output oracle: every `/extract` reply is
//! compared byte for byte with the body the same bundle produces
//! in-process, computed before the load starts.

use pae_core::frozen::FrozenExtractor;
use pae_core::Triple;
use pae_obs::json::write_str;
use pae_synth::ProductPage;

/// One `/extract` request of a workload and its expected reply body.
pub struct Request {
    pub body: String,
    pub expected: String,
    pub pages: usize,
}

/// `{"product":N,"html":"…"}`, the single-page request body.
pub fn single_body(page: &ProductPage) -> String {
    let mut body = format!("{{\"product\":{},\"html\":", page.id);
    write_str(&mut body, &page.html);
    body.push('}');
    body
}

/// `{"pages":[{…},…]}`, the batch request body.
pub fn batch_body(pages: &[&ProductPage]) -> String {
    let items: Vec<String> = pages.iter().map(|p| single_body(p)).collect();
    format!("{{\"pages\":[{}]}}", items.join(","))
}

/// The `/extract` reply body the server renders for `triples`.
pub fn render_reply(pages: usize, triples: &[Triple]) -> String {
    let mut out = format!("{{\"pages\":{pages},\"triples\":[");
    for (i, t) in triples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"product\":{},\"attr\":", t.product));
        write_str(&mut out, &t.attr);
        out.push_str(",\"value\":");
        write_str(&mut out, &t.value);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// The distinct requests of a workload: page `i` alone when `batch` is
/// 1, otherwise `batch` consecutive pages starting at a multiple of
/// `batch`, wrapping around the page list. Expected replies come from
/// [`FrozenExtractor::extract_pages`].
pub fn requests(extractor: &FrozenExtractor, pages: &[ProductPage], batch: usize) -> Vec<Request> {
    let n = pages.len();
    let distinct = if batch == 1 { n } else { n / gcd(n, batch) };
    (0..distinct)
        .map(|r| {
            let chosen: Vec<&ProductPage> =
                (0..batch).map(|j| &pages[(r * batch + j) % n]).collect();
            let pairs: Vec<(u32, String)> = chosen.iter().map(|p| (p.id, p.html.clone())).collect();
            let body = if batch == 1 {
                single_body(chosen[0])
            } else {
                batch_body(&chosen)
            };
            Request {
                body,
                expected: render_reply(batch, &extractor.extract_pages(&pairs)),
                pages: batch,
            }
        })
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Checks one reply against the oracle.
pub fn verify(status: u16, body: &str, expected: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}: {body:.200}"));
    }
    if body != expected {
        let at = body
            .bytes()
            .zip(expected.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(body.len().min(expected.len()));
        return Err(format!(
            "reply differs from the in-process extraction at byte {at} \
             ({} vs {} bytes)",
            body.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Order-independent FNV-1a digest of a triple set.
pub fn triples_digest(triples: &[Triple]) -> u64 {
    let mut lines: Vec<String> = triples
        .iter()
        .map(|t| format!("{}\t{}\t{}\n", t.product, t.attr, t.value))
        .collect();
    lines.sort_unstable();
    pae_core::bundle::fnv1a(lines.concat().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pae_core::{parse_corpus, BootstrapPipeline, FrozenModel, PipelineConfig};
    use pae_synth::{CategoryKind, DatasetSpec};

    fn dataset(seed: u64) -> pae_synth::Dataset {
        DatasetSpec::new(CategoryKind::VacuumCleaner, seed)
            .products(30)
            .generate()
    }

    fn corpus_digest(seed: u64) -> u64 {
        let words = parse_corpus(&dataset(seed)).word_sentences();
        pae_core::bundle::fnv1a(format!("{words:?}").as_bytes())
    }

    #[test]
    fn the_seed_alone_decides_bodies_and_corpora() {
        let bodies =
            |seed| -> Vec<String> { dataset(seed).pages.iter().map(single_body).collect() };
        assert_eq!(bodies(7), bodies(7));
        assert_ne!(bodies(7), bodies(8));
        assert_eq!(corpus_digest(7), corpus_digest(7));
        assert_ne!(corpus_digest(7), corpus_digest(8));
    }

    #[test]
    fn batches_cover_every_page_and_bodies_parse() {
        let d = dataset(3);
        let config = PipelineConfig {
            iterations: 1,
            seed: 3,
            ..Default::default()
        };
        let corpus = parse_corpus(&d);
        let outcome = BootstrapPipeline::new(config.clone()).run_on_corpus(&d, &corpus);
        let model = FrozenModel::freeze(&d, &corpus, &outcome, &config).expect("freeze");
        let extractor = model.extractor().expect("extractor");
        let batches = requests(&extractor, &d.pages, 8);
        // 30 pages in batches of 8 starting at multiples of 8: 15 distinct.
        assert_eq!(batches.len(), 15);
        for r in &batches {
            let doc = pae_obs::json::Json::parse(&r.body).expect("body is JSON");
            assert!(doc.get("pages").is_some());
            pae_serve::parse_extract_response(&r.expected).expect("expected reply parses");
        }
        let singles = requests(&extractor, &d.pages, 1);
        assert_eq!(singles.len(), d.pages.len());
    }

    #[test]
    fn the_oracle_catches_a_corrupted_reply() {
        let triples = vec![Triple {
            product: 4,
            attr: "power".to_owned(),
            value: "1200 W".to_owned(),
        }];
        let expected = render_reply(1, &triples);
        assert!(verify(200, &expected, &expected).is_ok());
        let corrupted = expected.replace("1200", "1300");
        assert!(verify(200, &corrupted, &expected).is_err());
        assert!(verify(200, &expected[..expected.len() - 1], &expected).is_err());
        assert!(verify(500, &expected, &expected).is_err());
        assert_eq!(
            pae_serve::parse_extract_response(&expected).expect("parses"),
            triples
        );
    }

    #[test]
    fn digests_ignore_order_but_not_content() {
        let t = |v: &str| Triple {
            product: 1,
            attr: "a".to_owned(),
            value: v.to_owned(),
        };
        assert_eq!(
            triples_digest(&[t("x"), t("y")]),
            triples_digest(&[t("y"), t("x")])
        );
        assert_ne!(triples_digest(&[t("x")]), triples_digest(&[t("z")]));
    }
}
