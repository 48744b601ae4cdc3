//! Anchor trie over anchor literals — stage 1 of the scan pipeline.
//!
//! One trie is built over *all* anchor literals of a sealed
//! [`SignatureSet`](crate::SignatureSet), so the anchor stage costs one
//! pass over the token stream **regardless of signature count** — the
//! 100×-signature-scale requirement. Each distinct literal is one
//! *pattern*; signatures sharing an anchor literal share the pattern and
//! differ only in the candidate bucket attached to it
//! ([`crate::matcher::ScanPipeline`]).
//!
//! Anchors are whole tokens, so the one query is
//! [`AnchorTrie::match_token`]: which pattern equals the token's
//! complete (quote-stripped) text? Every token starts at the root and
//! walks one edge per byte; reaching a terminal node after the last byte
//! is a match. No hashing and no per-signature work — a handful of
//! instructions per byte, and most tokens never reach the walk: the
//! [`AnchorTrie::may_match`] bitmap rejects them on their first byte or
//! their length.
//!
//! Layout is flattened for scan speed: a dense 256-way root table (most
//! tokens that pass the bitmap still die on their first byte, one load),
//! then per-node sorted edge runs resolved by binary search. The trie is
//! immutable after build and is derived state: every loader rebuilds it
//! from the signatures when it seals a set, and it is never persisted.

/// Sentinel for "no node" in the root table.
const NO_NODE: u32 = u32::MAX;
/// Sentinel for "no pattern ends here".
const NO_PATTERN: u32 = u32::MAX;

/// One node of the flattened trie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    /// First edge of this node's run in [`AnchorTrie::edge_bytes`] /
    /// [`AnchorTrie::edge_targets`].
    edges_start: u32,
    /// Number of edges in the run.
    edges_len: u16,
    /// Pattern ending exactly at this node, or `NO_PATTERN`.
    pattern: u32,
}

/// An immutable whole-token matcher over anchor literal byte strings.
///
/// Build once per sealed signature set with [`AnchorTrie::build`]; see
/// the [module docs](self) for the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnchorTrie {
    /// Dense goto table of the root: byte → node id or `NO_NODE`.
    root: Vec<u32>,
    nodes: Vec<Node>,
    /// Edge labels, one run per node, each run sorted by byte.
    edge_bytes: Vec<u8>,
    /// Edge targets, parallel to `edge_bytes`.
    edge_targets: Vec<u32>,
    /// Skip-loop bitmap: bit `b` set iff some pattern starts with byte
    /// `b`. 32 bytes — one cache line — versus the 1 KiB root table, so
    /// [`AnchorTrie::match_token`] rejects the common token (anchors are
    /// rare) without touching the table.
    first_byte: [u64; 4],
    /// Length of the shortest non-empty pattern (`u32::MAX` when there is
    /// none) — tokens shorter than every pattern (single punctuation,
    /// short operators) can never equal one, so the walk is skipped
    /// outright.
    min_pattern_len: u32,
}

/// Mutable trie node used only during construction.
#[derive(Debug, Default)]
struct BuildNode {
    /// Sorted `(byte, child)` edges.
    edges: Vec<(u8, u32)>,
    pattern: u32,
}

impl AnchorTrie {
    /// Build the trie over `patterns`. Duplicate patterns are the
    /// caller's concern (the pipeline deduplicates literals into shared
    /// candidate buckets before building); if duplicates are passed, the
    /// **last** one owns the terminal node. Empty patterns never match
    /// (no token has empty text) and are ignored.
    #[must_use]
    pub fn build<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        let mut trie: Vec<BuildNode> = vec![BuildNode {
            edges: Vec::new(),
            pattern: NO_PATTERN,
        }];
        let mut min_pattern_len = u32::MAX;
        for (id, pattern) in patterns.iter().enumerate() {
            let bytes = pattern.as_ref();
            if bytes.is_empty() {
                continue;
            }
            min_pattern_len =
                min_pattern_len.min(u32::try_from(bytes.len()).expect("pattern length fits u32"));
            let mut node = 0usize;
            for &b in bytes {
                node = match trie[node].edges.binary_search_by_key(&b, |e| e.0) {
                    Ok(pos) => trie[node].edges[pos].1 as usize,
                    Err(pos) => {
                        let child = trie.len() as u32;
                        trie.push(BuildNode {
                            edges: Vec::new(),
                            pattern: NO_PATTERN,
                        });
                        trie[node].edges.insert(pos, (b, child));
                        child as usize
                    }
                };
            }
            trie[node].pattern = u32::try_from(id).expect("pattern count fits u32");
        }

        // Flatten: one sorted edge run per node.
        let mut nodes = Vec::with_capacity(trie.len());
        let mut edge_bytes = Vec::new();
        let mut edge_targets = Vec::new();
        for build in &trie {
            nodes.push(Node {
                edges_start: u32::try_from(edge_bytes.len()).expect("edge count fits u32"),
                edges_len: u16::try_from(build.edges.len()).expect("≤256 edges per node"),
                pattern: build.pattern,
            });
            for &(b, to) in &build.edges {
                edge_bytes.push(b);
                edge_targets.push(to);
            }
        }

        let mut root = vec![NO_NODE; 256];
        let mut first_byte = [0u64; 4];
        for &(b, to) in &trie[0].edges {
            root[b as usize] = to;
            first_byte[usize::from(b >> 6)] |= 1u64 << (b & 63);
        }

        AnchorTrie {
            root,
            nodes,
            edge_bytes,
            edge_targets,
            first_byte,
            min_pattern_len,
        }
    }

    /// Number of trie nodes (including the root).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The pattern equal to the **whole** of `text`, if any.
    ///
    /// Starts at the root, so reaching a terminal node after consuming
    /// every byte means the root-to-node path *is* `text`.
    /// Signature-count independent: cost is `O(text.len())` with one
    /// dense load for the first byte and a binary search over ≤ alphabet
    /// edges per further byte.
    #[must_use]
    pub fn match_token(&self, text: &[u8]) -> Option<u32> {
        if !self.may_match(text) {
            return None;
        }
        let (&first, rest) = text.split_first()?;
        let mut node = self.root[first as usize];
        if node == NO_NODE {
            return None;
        }
        for &b in rest {
            node = self.goto(node, b)?;
        }
        let pattern = self.nodes[node as usize].pattern;
        (pattern != NO_PATTERN).then_some(pattern)
    }

    /// The skip-loop test in front of [`AnchorTrie::match_token`]'s walk:
    /// `false` guarantees no pattern equals `text`, from two loads off one
    /// 32-byte bitmap — no pattern starts with the first byte, or the
    /// token is shorter than every pattern. Punctuation-heavy token
    /// streams (minified JS is mostly `=`, `(`, `;`, …, and anchors are ≥
    /// [`MIN_ANCHOR_LEN`](crate::matcher::MIN_ANCHOR_LEN) chars) die here
    /// without probing the 1 KiB root table.
    #[inline]
    #[must_use]
    pub fn may_match(&self, text: &[u8]) -> bool {
        let Some(&first) = text.first() else {
            return false;
        };
        text.len() >= self.min_pattern_len as usize
            && self.first_byte[usize::from(first >> 6)] >> (first & 63) & 1 == 1
    }

    /// Transition out of `node` on byte `b`.
    #[inline]
    fn goto(&self, node: u32, b: u8) -> Option<u32> {
        let n = &self.nodes[node as usize];
        let start = n.edges_start as usize;
        let run = &self.edge_bytes[start..start + n.edges_len as usize];
        run.binary_search(&b)
            .ok()
            .map(|pos| self.edge_targets[start + pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn patterns() -> Vec<&'static str> {
        vec!["he", "she", "his", "hers", "decoder_0001"]
    }

    #[test]
    fn match_token_is_whole_token_only() {
        let trie = AnchorTrie::build(&patterns());
        assert_eq!(trie.match_token(b"he"), Some(0));
        assert_eq!(trie.match_token(b"she"), Some(1));
        assert_eq!(trie.match_token(b"hers"), Some(3));
        assert_eq!(trie.match_token(b"her"), None, "prefix of a pattern");
        assert_eq!(trie.match_token(b"xhe"), None, "suffix embedding ignored");
        assert_eq!(trie.match_token(b"decoder_0001"), Some(4));
        assert_eq!(trie.match_token(b"decoder_0002"), None);
        assert_eq!(trie.match_token(b""), None);
    }

    #[test]
    fn skip_loop_never_hides_a_match() {
        let pats = patterns();
        let trie = AnchorTrie::build(&pats);
        // Every pattern is its own whole-token match, so may_match must
        // pass it; and !may_match ⇒ match_token is None, byte-exhaustively
        // for length-1 and length-2 tokens plus pattern-adjacent probes.
        for (id, p) in pats.iter().enumerate() {
            assert!(trie.may_match(p.as_bytes()), "pattern {p:?} skipped");
            assert_eq!(trie.match_token(p.as_bytes()), Some(id as u32));
        }
        for b in 0u8..=255 {
            for probe in [vec![b], vec![b, b'e'], vec![b, b'h', b'e']] {
                if !trie.may_match(&probe) {
                    assert_eq!(trie.match_token(&probe), None, "probe {probe:?}");
                }
            }
        }
        // Punctuation-heavy tokens die on the skip test: none of the
        // patterns start with punctuation, and `=`/`;` are shorter than
        // the shortest pattern anyway.
        for punct in [&b"="[..], b";", b"(", b"[", b"&&", b"=="] {
            assert!(!trie.may_match(punct), "punct {punct:?}");
        }
        // Shorter than every pattern: skipped even with a viable first
        // byte ("h" starts "he"/"his"/"hers" but min pattern length is 2).
        assert!(!trie.may_match(b"h"));
        assert!(trie.may_match(b"hq"), "length/first-byte both viable");
        assert_eq!(trie.match_token(b"hq"), None, "walk still decides");
    }

    #[test]
    fn empty_and_degenerate_builds() {
        let trie = AnchorTrie::build::<&str>(&[]);
        assert_eq!(trie.match_token(b"anything"), None);
        assert_eq!(trie.node_count(), 1, "just the root");

        // Empty patterns are ignored, later duplicates win the terminal.
        let trie = AnchorTrie::build(&["", "dup", "dup"]);
        assert_eq!(trie.match_token(b"dup"), Some(2));
        assert_eq!(trie.match_token(b""), None);
    }

    proptest! {
        /// The trie oracle: `match_token(t)` is the last non-empty pattern
        /// equal to `t`. A three-letter alphabet and short strings make
        /// duplicates, shared prefixes, prefix-of-pattern probes and empty
        /// patterns and probes common.
        #[test]
        fn match_token_is_the_last_equal_pattern(
            pats in prop::collection::vec("[abc]{0,4}", 0..12),
            probes in prop::collection::vec("[abc]{0,5}", 1..24),
        ) {
            let trie = AnchorTrie::build(&pats);
            for probe in pats.iter().chain(&probes) {
                let want = pats
                    .iter()
                    .rposition(|p| !p.is_empty() && p == probe)
                    .map(|i| i as u32);
                prop_assert_eq!(trie.match_token(probe.as_bytes()), want, "probe {:?}", probe);
                if want.is_some() {
                    prop_assert!(trie.may_match(probe.as_bytes()));
                }
            }
        }
    }
}
