//! Macroscopic railway topology: nodes, tracks, TTD sections and stations.
//!
//! This is the *continuous* description a designer starts from (Fig. 1a of
//! the paper): tracks with physical lengths joined at points and axle
//! counters, grouped into Trackside-Train-Detection (TTD) sections, with
//! named stations marking where trains may start, stop and end.
//! [`crate::DiscreteNet`] turns it into the segment graph `G = (V, E)` of
//! Section III-A.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use crate::error::NetworkError;
use crate::units::Meters;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Clone,
            Copy,
            PartialEq,
            Eq,
            PartialOrd,
            Ord,
            Hash,
            Debug,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Dense index for table addressing.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Creates the id from a dense index.
            pub fn from_index(i: usize) -> Self {
                $name(i as u32)
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// A junction point, axle counter location or track end in the
    /// macroscopic topology.
    TopoNodeId
);
id_type!(
    /// A physical track between two topology nodes.
    TrackId
);
id_type!(
    /// A Trackside-Train-Detection section (a group of tracks guarded by
    /// axle counters).
    TtdId
);
id_type!(
    /// A named station (a set of tracks where trains may start, stop or
    /// terminate).
    StationId
);

pub(crate) use id_type;

/// A physical track of the macroscopic topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Track {
    /// One end of the track.
    pub from: TopoNodeId,
    /// The other end.
    pub to: TopoNodeId,
    /// Physical length.
    pub length: Meters,
    /// Human-readable name (unique within the network).
    pub name: String,
}

/// A TTD section: a named set of tracks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ttd {
    /// Human-readable name (unique within the network).
    pub name: String,
    /// The member tracks.
    pub tracks: Vec<TrackId>,
}

/// A station: a named set of tracks where trains may start, stop or end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Station {
    /// Human-readable name (unique within the network).
    pub name: String,
    /// Tracks belonging to the station.
    pub tracks: Vec<TrackId>,
    /// `true` for stations at the network boundary: trains terminating here
    /// leave the modelled network, freeing their section. Trains ending at
    /// an interior station park on a station track instead.
    pub boundary: bool,
}

/// A validated macroscopic railway network.
///
/// Construct via [`NetworkBuilder`]. A network is immutable once built, so
/// its clones share one copy of the topology: cloning a network (or a
/// [`crate::Scenario`] holding one) copies a pointer, not the tracks,
/// TTDs and stations.
///
/// # Examples
///
/// ```
/// use etcs_network::{NetworkBuilder, Meters};
/// let mut b = NetworkBuilder::new();
/// let a = b.node();
/// let p = b.node();
/// let t = b.track(a, p, Meters::from_km(2.0), "main");
/// b.ttd("TTD1", [t]);
/// b.station("A", [t], true);
/// let net = b.build()?;
/// assert_eq!(net.tracks().len(), 1);
/// # Ok::<(), etcs_network::NetworkError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RailwayNetwork {
    topology: Arc<Topology>,
}

/// The validated contents of a [`RailwayNetwork`], shared by its clones.
#[derive(Debug, PartialEq, Eq)]
struct Topology {
    num_nodes: usize,
    tracks: Vec<Track>,
    ttds: Vec<Ttd>,
    stations: Vec<Station>,
    /// Track → owning TTD (validated to be total and unique).
    track_ttd: Vec<TtdId>,
}

impl RailwayNetwork {
    /// Number of topology nodes.
    pub fn num_nodes(&self) -> usize {
        self.topology.num_nodes
    }

    /// All tracks, indexable by [`TrackId`].
    pub fn tracks(&self) -> &[Track] {
        &self.topology.tracks
    }

    /// All TTD sections, indexable by [`TtdId`].
    pub fn ttds(&self) -> &[Ttd] {
        &self.topology.ttds
    }

    /// All stations, indexable by [`StationId`].
    pub fn stations(&self) -> &[Station] {
        &self.topology.stations
    }

    /// The TTD owning a track.
    pub fn ttd_of(&self, track: TrackId) -> TtdId {
        self.topology.track_ttd[track.index()]
    }

    /// Looks a station up by name.
    pub fn station_by_name(&self, name: &str) -> Option<StationId> {
        self.stations()
            .iter()
            .position(|s| s.name == name)
            .map(StationId::from_index)
    }

    /// Looks a TTD up by name.
    pub fn ttd_by_name(&self, name: &str) -> Option<TtdId> {
        self.ttds()
            .iter()
            .position(|t| t.name == name)
            .map(TtdId::from_index)
    }

    /// Total track length of the network.
    pub fn total_length(&self) -> Meters {
        self.tracks()
            .iter()
            .fold(Meters::ZERO, |acc, t| acc + t.length)
    }

    /// Degree of each topology node (number of incident tracks).
    pub fn node_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_nodes()];
        for t in self.tracks() {
            deg[t.from.index()] += 1;
            deg[t.to.index()] += 1;
        }
        deg
    }
}

/// Builder for [`RailwayNetwork`] with validation at [`NetworkBuilder::build`].
#[derive(Clone, Debug, Default)]
pub struct NetworkBuilder {
    num_nodes: usize,
    tracks: Vec<Track>,
    ttds: Vec<Ttd>,
    stations: Vec<Station>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a new topology node and returns its id.
    pub fn node(&mut self) -> TopoNodeId {
        let id = TopoNodeId::from_index(self.num_nodes);
        self.num_nodes += 1;
        id
    }

    /// Declares `n` nodes and returns them in order.
    pub fn nodes(&mut self, n: usize) -> Vec<TopoNodeId> {
        (0..n).map(|_| self.node()).collect()
    }

    /// Declares a track between two nodes.
    pub fn track(
        &mut self,
        from: TopoNodeId,
        to: TopoNodeId,
        length: Meters,
        name: impl Into<String>,
    ) -> TrackId {
        let id = TrackId::from_index(self.tracks.len());
        self.tracks.push(Track {
            from,
            to,
            length,
            name: name.into(),
        });
        id
    }

    /// Declares a TTD section over the given tracks.
    pub fn ttd(
        &mut self,
        name: impl Into<String>,
        tracks: impl IntoIterator<Item = TrackId>,
    ) -> TtdId {
        let id = TtdId::from_index(self.ttds.len());
        self.ttds.push(Ttd {
            name: name.into(),
            tracks: tracks.into_iter().collect(),
        });
        id
    }

    /// Declares a station over the given tracks; `boundary` marks network
    /// entry/exit stations.
    pub fn station(
        &mut self,
        name: impl Into<String>,
        tracks: impl IntoIterator<Item = TrackId>,
        boundary: bool,
    ) -> StationId {
        let id = StationId::from_index(self.stations.len());
        self.stations.push(Station {
            name: name.into(),
            tracks: tracks.into_iter().collect(),
            boundary,
        });
        id
    }

    /// Validates and freezes the network.
    ///
    /// # Errors
    ///
    /// Returns a [`NetworkError`] if a track end references an undeclared
    /// node, a track has zero length, any track is not in exactly one TTD,
    /// a TTD or station references an undeclared track, names collide, or
    /// the graph is disconnected.
    pub fn build(self) -> Result<RailwayNetwork, NetworkError> {
        // Reference validity.
        for t in &self.tracks {
            for n in [t.from, t.to] {
                if n.index() >= self.num_nodes {
                    return Err(NetworkError::UnknownNode { node: n.index() });
                }
            }
            if t.length == Meters::ZERO {
                return Err(NetworkError::EmptyTrack {
                    track: t.name.clone(),
                });
            }
        }
        for coll in [
            self.ttds.iter().flat_map(|t| &t.tracks).collect::<Vec<_>>(),
            self.stations
                .iter()
                .flat_map(|s| &s.tracks)
                .collect::<Vec<_>>(),
        ] {
            for &tr in coll {
                if tr.index() >= self.tracks.len() {
                    return Err(NetworkError::UnknownTrack { track: tr.index() });
                }
            }
        }
        // Unique names per kind.
        for names in [
            self.tracks.iter().map(|t| &t.name).collect::<Vec<_>>(),
            self.ttds.iter().map(|t| &t.name).collect::<Vec<_>>(),
            self.stations.iter().map(|s| &s.name).collect::<Vec<_>>(),
        ] {
            let mut seen = BTreeSet::new();
            for n in names {
                if !seen.insert(n) {
                    return Err(NetworkError::DuplicateName { name: n.clone() });
                }
            }
        }
        // TTD coverage: exactly one TTD per track.
        let mut coverage: BTreeMap<TrackId, usize> = BTreeMap::new();
        for ttd in &self.ttds {
            for &tr in &ttd.tracks {
                *coverage.entry(tr).or_insert(0) += 1;
            }
        }
        let mut track_ttd = vec![TtdId(u32::MAX); self.tracks.len()];
        for (i, t) in self.tracks.iter().enumerate() {
            let count = coverage.get(&TrackId::from_index(i)).copied().unwrap_or(0);
            if count != 1 {
                return Err(NetworkError::TtdCoverage {
                    track: t.name.clone(),
                    count,
                });
            }
        }
        for (ti, ttd) in self.ttds.iter().enumerate() {
            for &tr in &ttd.tracks {
                track_ttd[tr.index()] = TtdId::from_index(ti);
            }
        }
        // Connectivity over nodes touched by tracks.
        if !self.tracks.is_empty() {
            let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.num_nodes];
            for t in &self.tracks {
                adj[t.from.index()].push(t.to.index());
                adj[t.to.index()].push(t.from.index());
            }
            let mut seen = vec![false; self.num_nodes];
            let start = self.tracks[0].from.index();
            let mut queue = VecDeque::from([start]);
            seen[start] = true;
            while let Some(n) = queue.pop_front() {
                for &m in &adj[n] {
                    if !seen[m] {
                        seen[m] = true;
                        queue.push_back(m);
                    }
                }
            }
            let touched: BTreeSet<usize> = self
                .tracks
                .iter()
                .flat_map(|t| [t.from.index(), t.to.index()])
                .collect();
            if touched.iter().any(|&n| !seen[n]) {
                return Err(NetworkError::Disconnected);
            }
        }
        Ok(RailwayNetwork {
            topology: Arc::new(Topology {
                num_nodes: self.num_nodes,
                tracks: self.tracks,
                ttds: self.ttds,
                stations: self.stations,
                track_ttd,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn km(x: f64) -> Meters {
        Meters::from_km(x)
    }

    #[test]
    fn minimal_network_builds() {
        let mut b = NetworkBuilder::new();
        let a = b.node();
        let c = b.node();
        let t = b.track(a, c, km(1.0), "t");
        b.ttd("TTD1", [t]);
        let net = b.build().expect("valid");
        assert_eq!(net.num_nodes(), 2);
        assert_eq!(net.ttd_of(t), TtdId(0));
        assert_eq!(net.total_length(), km(1.0));
    }

    #[test]
    fn zero_length_track_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.node();
        let c = b.node();
        let t = b.track(a, c, Meters::ZERO, "t");
        b.ttd("TTD1", [t]);
        assert_eq!(
            b.build(),
            Err(NetworkError::EmptyTrack { track: "t".into() })
        );
    }

    #[test]
    fn uncovered_track_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.node();
        let c = b.node();
        b.track(a, c, km(1.0), "t");
        assert!(matches!(
            b.build(),
            Err(NetworkError::TtdCoverage { count: 0, .. })
        ));
    }

    #[test]
    fn doubly_covered_track_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.node();
        let c = b.node();
        let t = b.track(a, c, km(1.0), "t");
        b.ttd("TTD1", [t]);
        b.ttd("TTD2", [t]);
        assert!(matches!(
            b.build(),
            Err(NetworkError::TtdCoverage { count: 2, .. })
        ));
    }

    #[test]
    fn disconnected_network_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.node();
        let c = b.node();
        let d = b.node();
        let e = b.node();
        let t1 = b.track(a, c, km(1.0), "t1");
        let t2 = b.track(d, e, km(1.0), "t2");
        b.ttd("TTD1", [t1]);
        b.ttd("TTD2", [t2]);
        assert_eq!(b.build(), Err(NetworkError::Disconnected));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.node();
        let c = b.node();
        let d = b.node();
        let t1 = b.track(a, c, km(1.0), "same");
        let t2 = b.track(c, d, km(1.0), "same");
        b.ttd("TTD1", [t1, t2]);
        assert_eq!(
            b.build(),
            Err(NetworkError::DuplicateName {
                name: "same".into()
            })
        );
    }

    #[test]
    fn dangling_node_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.node();
        let bad = TopoNodeId(77);
        let t = b.track(a, bad, km(1.0), "t");
        b.ttd("TTD1", [t]);
        assert_eq!(b.build(), Err(NetworkError::UnknownNode { node: 77 }));
    }

    #[test]
    fn dangling_track_in_station_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.node();
        let c = b.node();
        let t = b.track(a, c, km(1.0), "t");
        b.ttd("TTD1", [t]);
        b.station("S", [TrackId(9)], false);
        assert_eq!(b.build(), Err(NetworkError::UnknownTrack { track: 9 }));
    }

    #[test]
    fn lookup_by_name() {
        let mut b = NetworkBuilder::new();
        let a = b.node();
        let c = b.node();
        let t = b.track(a, c, km(1.0), "t");
        b.ttd("TTD1", [t]);
        b.station("Alpha", [t], true);
        let net = b.build().expect("valid");
        assert_eq!(net.station_by_name("Alpha"), Some(StationId(0)));
        assert_eq!(net.station_by_name("Beta"), None);
        assert_eq!(net.ttd_by_name("TTD1"), Some(TtdId(0)));
        assert_eq!(net.ttd_by_name("TTD9"), None);
    }

    #[test]
    fn node_degrees_count_incident_tracks() {
        let mut b = NetworkBuilder::new();
        let n = b.nodes(4);
        let t1 = b.track(n[0], n[1], km(1.0), "t1");
        let t2 = b.track(n[1], n[2], km(1.0), "t2");
        let t3 = b.track(n[1], n[3], km(1.0), "t3");
        b.ttd("TTD1", [t1, t2, t3]);
        let net = b.build().expect("valid");
        assert_eq!(net.node_degrees(), vec![1, 3, 1, 1]);
    }

    #[test]
    fn clones_share_the_topology_and_equality_compares_contents() {
        let build = || {
            let mut b = NetworkBuilder::new();
            let n = b.nodes(2);
            let t = b.track(n[0], n[1], km(1.0), "t");
            b.ttd("TTD1", [t]);
            b.station("A", [t], true);
            b.build().expect("valid")
        };
        let net = build();
        let copy = net.clone();
        assert!(
            std::ptr::eq(net.tracks().as_ptr(), copy.tracks().as_ptr()),
            "a clone copies a pointer, not the tracks"
        );
        let rebuilt = build();
        assert!(!std::ptr::eq(
            net.tracks().as_ptr(),
            rebuilt.tracks().as_ptr()
        ));
        assert_eq!(net, rebuilt, "separately built equal networks are equal");
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(format!("{}", TrackId(3)), "TrackId(3)");
        assert_eq!(format!("{}", TtdId(0)), "TtdId(0)");
    }
}
