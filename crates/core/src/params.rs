//! `PARAMETERS ('...')` strings for the `SPATIAL_INDEX` indextype.

use sdo_dbms::extensible::{param, parse_params};
use sdo_dbms::DbError;
use sdo_geom::Rect;
use sdo_rtree::SplitStrategy;

/// Parsed spatial index parameters, mirroring the knobs Oracle exposes
/// through `CREATE INDEX ... PARAMETERS ('...')` and the
/// `USER_SDO_GEOM_METADATA` extent.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialIndexParams {
    /// `layer_gtype=QUADTREE|RTREE` (Oracle models this as separate
    /// index types selected by parameters; default R-tree).
    pub kind: IndexKindParam,
    /// `sdo_level=<n>`: quadtree tiling level.
    pub sdo_level: u32,
    /// `tree_fanout=<n>`: R-tree node capacity.
    pub tree_fanout: usize,
    /// `split=linear|quadratic|rstar`.
    pub split: SplitStrategy,
    /// `reinsert=true`: R*-style forced reinsertion on dynamic inserts.
    pub forced_reinsert: bool,
    /// Optional explicit world extent
    /// (`extent=min_x:min_y:max_x:max_y`); computed from the data when
    /// absent, like deriving it from `USER_SDO_GEOM_METADATA`. A
    /// quadtree refuses rows whose MBR leaves its extent.
    pub extent: Option<Rect>,
}

/// Which index structure `PARAMETERS` selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKindParam {
    /// R-tree (the default).
    RTree,
    /// Linear quadtree (implied by `sdo_level=`).
    Quadtree,
}

impl Default for SpatialIndexParams {
    fn default() -> Self {
        SpatialIndexParams {
            kind: IndexKindParam::RTree,
            sdo_level: sdo_quadtree::DEFAULT_LEVEL,
            tree_fanout: sdo_rtree::DEFAULT_FANOUT,
            split: SplitStrategy::default(),
            forced_reinsert: false,
            extent: None,
        }
    }
}

impl SpatialIndexParams {
    /// Parse an Oracle-style parameters string; unknown keys error (a
    /// typo in index parameters should never pass silently).
    pub fn parse(s: &str) -> Result<Self, DbError> {
        let mut out = SpatialIndexParams::default();
        let pairs = parse_params(s);
        for (k, _) in &pairs {
            if !matches!(
                k.as_str(),
                "layer_gtype"
                    | "index_type"
                    | "sdo_level"
                    | "tree_fanout"
                    | "split"
                    | "extent"
                    | "reinsert"
            ) {
                return Err(DbError::Plan(format!("unknown index parameter '{k}'")));
            }
        }
        if let Some(v) = param(&pairs, "layer_gtype").or_else(|| param(&pairs, "index_type")) {
            out.kind = match v.to_ascii_uppercase().as_str() {
                "QUADTREE" => IndexKindParam::Quadtree,
                "RTREE" => IndexKindParam::RTree,
                other => return Err(DbError::Plan(format!("unknown index kind '{other}'"))),
            };
        }
        if let Some(v) = param(&pairs, "sdo_level") {
            out.sdo_level = v.parse().map_err(|_| DbError::Plan(format!("bad sdo_level '{v}'")))?;
            // sdo_level implies a quadtree unless the kind was forced.
            if param(&pairs, "layer_gtype").is_none() && param(&pairs, "index_type").is_none() {
                out.kind = IndexKindParam::Quadtree;
            }
            if out.sdo_level == 0 || out.sdo_level > sdo_quadtree::MAX_LEVEL {
                return Err(DbError::Plan(format!(
                    "sdo_level must be in 1..={}",
                    sdo_quadtree::MAX_LEVEL
                )));
            }
        }
        if let Some(v) = param(&pairs, "tree_fanout") {
            out.tree_fanout =
                v.parse().map_err(|_| DbError::Plan(format!("bad tree_fanout '{v}'")))?;
            if out.tree_fanout < 4 {
                return Err(DbError::Plan("tree_fanout must be at least 4".into()));
            }
        }
        if let Some(v) = param(&pairs, "split") {
            out.split = match v.to_ascii_lowercase().as_str() {
                "linear" => SplitStrategy::Linear,
                "quadratic" => SplitStrategy::Quadratic,
                "rstar" => SplitStrategy::RStar,
                other => return Err(DbError::Plan(format!("unknown split strategy '{other}'"))),
            };
        }
        if let Some(v) = param(&pairs, "reinsert") {
            out.forced_reinsert = match v.to_ascii_lowercase().as_str() {
                "true" | "on" | "1" => true,
                "false" | "off" | "0" => false,
                other => return Err(DbError::Plan(format!("bad reinsert flag '{other}'"))),
            };
        }
        if let Some(v) = param(&pairs, "extent") {
            let parts: Vec<f64> = v
                .split(':')
                .map(|p| p.parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|_| DbError::Plan(format!("bad extent '{v}'")))?;
            if parts.len() != 4 {
                return Err(DbError::Plan("extent needs min_x:min_y:max_x:max_y".into()));
            }
            let r = Rect::new(parts[0], parts[1], parts[2], parts[3]);
            if r.is_empty() {
                return Err(DbError::Plan("extent is empty".into()));
            }
            out.extent = Some(r);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let p = SpatialIndexParams::parse("").unwrap();
        assert_eq!(p, SpatialIndexParams::default());
        assert_eq!(p.kind, IndexKindParam::RTree);
    }

    #[test]
    fn sdo_level_implies_quadtree() {
        let p = SpatialIndexParams::parse("sdo_level=6").unwrap();
        assert_eq!(p.kind, IndexKindParam::Quadtree);
        assert_eq!(p.sdo_level, 6);
        // ...unless overridden
        let p = SpatialIndexParams::parse("sdo_level=6, layer_gtype=RTREE").unwrap();
        assert_eq!(p.kind, IndexKindParam::RTree);
    }

    #[test]
    fn rtree_knobs() {
        let p = SpatialIndexParams::parse("tree_fanout=16 split=rstar reinsert=true").unwrap();
        assert_eq!(p.tree_fanout, 16);
        assert_eq!(p.split, SplitStrategy::RStar);
        assert!(p.forced_reinsert);
        assert!(SpatialIndexParams::parse("reinsert=maybe").is_err());
    }

    #[test]
    fn extent_parses() {
        let p = SpatialIndexParams::parse("extent=0:0:100:50").unwrap();
        assert_eq!(p.extent, Some(Rect::new(0.0, 0.0, 100.0, 50.0)));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(SpatialIndexParams::parse("bogus_key=1").is_err());
        assert!(SpatialIndexParams::parse("sdo_level=0").is_err());
        assert!(SpatialIndexParams::parse("sdo_level=99").is_err());
        assert!(SpatialIndexParams::parse("tree_fanout=2").is_err());
        assert!(SpatialIndexParams::parse("split=zigzag").is_err());
        assert!(SpatialIndexParams::parse("extent=1:2:3").is_err());
        assert!(SpatialIndexParams::parse("extent=5:5:1:1").is_err());
    }
}
