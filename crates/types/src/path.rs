//! Normalized hierarchical paths.
//!
//! COSS applications address objects by full path (e.g. `/A/C/E/G/H`). The
//! IndexNode's TopDirPathCache works on *truncated prefixes* of such paths
//! (§5.1.1), and the Invalidator needs prefix tests (§5.1.2), so [`MetaPath`]
//! exposes those operations directly.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::{MetaError, Result};

/// A normalized, absolute path inside a namespace.
///
/// Components are stored individually; the root is the empty component list.
/// Component strings are reference-counted so that cloning paths (which the
/// proxy and caches do constantly) does not copy string data.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MetaPath {
    components: Vec<Arc<str>>,
}

impl MetaPath {
    /// The root path `/`.
    pub fn root() -> Self {
        MetaPath {
            components: Vec::new(),
        }
    }

    /// Parses an absolute path, normalizing redundant slashes.
    ///
    /// # Errors
    ///
    /// Returns [`MetaError::InvalidPath`] for relative paths, empty
    /// components produced by `.`/`..`, or components containing the
    /// reserved attribute-row name `/_ATTR` (§5.2.1 reserves it as a key).
    pub fn parse(s: &str) -> Result<Self> {
        if !s.starts_with('/') {
            return Err(MetaError::InvalidPath(format!("not absolute: {s:?}")));
        }
        let mut components = Vec::new();
        for part in s.split('/') {
            if part.is_empty() {
                continue;
            }
            if part == "." || part == ".." {
                return Err(MetaError::InvalidPath(format!("dot component in {s:?}")));
            }
            // `/_ATTR` itself can never appear as a component (it contains
            // the separator); reject the slash-less form too so user names
            // can never collide with attribute/delta row keys.
            if part == crate::record::ATTR_ROW_NAME.trim_start_matches('/') {
                return Err(MetaError::InvalidPath(format!("reserved name in {s:?}")));
            }
            components.push(Arc::<str>::from(part));
        }
        Ok(MetaPath { components })
    }

    /// Number of components; the root has depth 0.
    #[inline]
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// Whether this is the root path.
    #[inline]
    pub fn is_root(&self) -> bool {
        self.components.is_empty()
    }

    /// The final component, if any.
    pub fn name(&self) -> Option<&str> {
        self.components.last().map(|c| c.as_ref())
    }

    /// The parent path; `None` for the root.
    pub fn parent(&self) -> Option<MetaPath> {
        if self.is_root() {
            return None;
        }
        Some(MetaPath {
            components: self.components[..self.components.len() - 1].to_vec(),
        })
    }

    /// Iterates over the components from the root downwards.
    pub fn components(&self) -> impl Iterator<Item = &str> + '_ {
        self.components.iter().map(|c| c.as_ref())
    }

    /// The first `n` components as a path (the whole path if `n >= depth`).
    pub fn prefix(&self, n: usize) -> MetaPath {
        MetaPath {
            components: self.components[..n.min(self.components.len())].to_vec(),
        }
    }

    /// Truncates the final `k` levels, the TopDirPathCache key operation
    /// (§5.1.1): resolving `/A/C/E/G/H` with `k = 3` consults the cache with
    /// `/A/C`. Returns `None` when the path is not deeper than `k` (such
    /// paths are never cached).
    pub fn truncate_leaf(&self, k: usize) -> Option<MetaPath> {
        if self.components.len() <= k {
            return None;
        }
        Some(self.prefix(self.components.len() - k))
    }

    /// Whether `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &MetaPath) -> bool {
        self.components.len() <= other.components.len()
            && self
                .components
                .iter()
                .zip(&other.components)
                .all(|(a, b)| a == b)
    }

    /// Whether `self` is a *strict* ancestor of `other`.
    pub fn is_ancestor_of(&self, other: &MetaPath) -> bool {
        self.components.len() < other.components.len() && self.is_prefix_of(other)
    }

    /// Appends a component, returning the child path.
    pub fn child(&self, name: &str) -> MetaPath {
        let mut components = self.components.clone();
        components.push(Arc::<str>::from(name));
        MetaPath { components }
    }

    /// Depth of the least common ancestor of two paths.
    ///
    /// Loop detection for `dirrename` walks from the LCA towards the
    /// destination (§5.2.2, Figure 9 step 6).
    pub fn lca_depth(&self, other: &MetaPath) -> usize {
        self.components
            .iter()
            .zip(&other.components)
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// Rewrites this path by replacing the `src` prefix with `dst`.
    ///
    /// Used by caches to remap descendants after a rename. Returns `None`
    /// when `src` is not a prefix of `self`.
    pub fn rebase(&self, src: &MetaPath, dst: &MetaPath) -> Option<MetaPath> {
        if !src.is_prefix_of(self) {
            return None;
        }
        let mut components = dst.components.clone();
        components.extend_from_slice(&self.components[src.components.len()..]);
        Some(MetaPath { components })
    }
}

impl fmt::Display for MetaPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, "/");
        }
        for c in &self.components {
            write!(f, "/{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for MetaPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl std::str::FromStr for MetaPath {
    type Err = MetaError;

    fn from_str(s: &str) -> Result<Self> {
        MetaPath::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> MetaPath {
        MetaPath::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        assert_eq!(p("/A/C/E").to_string(), "/A/C/E");
        assert_eq!(p("//A///C/").to_string(), "/A/C");
        assert_eq!(p("/").to_string(), "/");
        assert!(p("/").is_root());
    }

    #[test]
    fn parse_rejects_invalid() {
        assert!(MetaPath::parse("relative").is_err());
        assert!(MetaPath::parse("/a/./b").is_err());
        assert!(MetaPath::parse("/a/../b").is_err());
        assert!(MetaPath::parse("/a/_ATTR/b").is_err());
    }

    #[test]
    fn parent_and_name() {
        let path = p("/A/C/E");
        assert_eq!(path.name(), Some("E"));
        assert_eq!(path.parent().unwrap(), p("/A/C"));
        assert_eq!(p("/A").parent().unwrap(), MetaPath::root());
        assert!(MetaPath::root().parent().is_none());
        assert!(MetaPath::root().name().is_none());
    }

    #[test]
    fn truncate_leaf_matches_paper_example() {
        // Resolving `/A/C/E/G/H` with k = 3 inspects `/A/C` (§5.1.1).
        assert_eq!(p("/A/C/E/G/H").truncate_leaf(3).unwrap(), p("/A/C"));
        assert!(p("/A/C").truncate_leaf(3).is_none());
        assert!(p("/A/C/E").truncate_leaf(3).is_none());
        assert_eq!(p("/A/C/E/G").truncate_leaf(3).unwrap(), p("/A"));
    }

    #[test]
    fn prefix_relations() {
        assert!(p("/A").is_prefix_of(&p("/A/B")));
        assert!(p("/A").is_ancestor_of(&p("/A/B")));
        assert!(!p("/A").is_ancestor_of(&p("/A")));
        assert!(p("/A").is_prefix_of(&p("/A")));
        assert!(!p("/A/B").is_prefix_of(&p("/A/C")));
        assert!(MetaPath::root().is_prefix_of(&p("/A")));
    }

    #[test]
    fn lca_depth_examples() {
        assert_eq!(p("/A/B/C").lca_depth(&p("/A/B/D/E")), 2);
        assert_eq!(p("/A").lca_depth(&p("/X")), 0);
        assert_eq!(p("/A/B").lca_depth(&p("/A/B")), 2);
    }

    #[test]
    fn rebase_rewrites_descendants() {
        let moved = p("/A/B/C/file").rebase(&p("/A/B"), &p("/X/Y")).unwrap();
        assert_eq!(moved, p("/X/Y/C/file"));
        assert!(p("/A/Z").rebase(&p("/A/B"), &p("/X")).is_none());
    }

    #[test]
    fn child_extends_path() {
        assert_eq!(MetaPath::root().child("A"), p("/A"));
        assert_eq!(p("/A").child("B").depth(), 2);
    }
}
