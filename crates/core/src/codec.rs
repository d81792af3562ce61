//! Binary codec for profiles and CFGs stored as HBase cell values.

use bytes::{BufMut, Bytes, BytesMut};

use cfstore::encoding::CodecError;
use cfstore::frame::{put_str, Cursor};
use mrsim::{MapPhase, ReducePhase};
use profiler::{CostFactors, JobProfile, MapProfile, ReduceProfile};
use staticanalysis::{Cfg, Node, NodeKind};

fn put_opt_f64(b: &mut BytesMut, v: Option<f64>) {
    match v {
        Some(x) => {
            b.put_u8(1);
            b.put_f64(x);
        }
        None => b.put_u8(0),
    }
}

fn opt_f64(c: &mut Cursor<'_>) -> Result<Option<f64>, CodecError> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(c.f64()?)),
        t => Err(CodecError::BadTag(t)),
    }
}

fn put_cost_factors(b: &mut BytesMut, cf: &CostFactors) {
    for v in cf.as_vec() {
        b.put_f64(v);
    }
}

fn cost_factors(c: &mut Cursor<'_>) -> Result<CostFactors, CodecError> {
    Ok(CostFactors {
        read_hdfs_io_cost: c.f64()?,
        write_hdfs_io_cost: c.f64()?,
        read_local_io_cost: c.f64()?,
        write_local_io_cost: c.f64()?,
        network_cost: c.f64()?,
        map_cpu_cost: c.f64()?,
        reduce_cpu_cost: c.f64()?,
        combine_cpu_cost: c.f64()?,
    })
}

/// One `phase_ms` entry on the wire: `phase tag u8 · ms f64`.
const PHASE_BYTES: usize = 9;

fn map_phase_tag(p: MapPhase) -> u8 {
    match p {
        MapPhase::Setup => 0,
        MapPhase::Read => 1,
        MapPhase::Map => 2,
        MapPhase::Collect => 3,
        MapPhase::Spill => 4,
        MapPhase::Merge => 5,
    }
}

fn map_phase_from(t: u8) -> Result<MapPhase, CodecError> {
    Ok(match t {
        0 => MapPhase::Setup,
        1 => MapPhase::Read,
        2 => MapPhase::Map,
        3 => MapPhase::Collect,
        4 => MapPhase::Spill,
        5 => MapPhase::Merge,
        other => return Err(CodecError::BadTag(other)),
    })
}

fn reduce_phase_tag(p: ReducePhase) -> u8 {
    match p {
        ReducePhase::Setup => 0,
        ReducePhase::Shuffle => 1,
        ReducePhase::Sort => 2,
        ReducePhase::Reduce => 3,
        ReducePhase::Write => 4,
    }
}

fn reduce_phase_from(t: u8) -> Result<ReducePhase, CodecError> {
    Ok(match t {
        0 => ReducePhase::Setup,
        1 => ReducePhase::Shuffle,
        2 => ReducePhase::Sort,
        3 => ReducePhase::Reduce,
        4 => ReducePhase::Write,
        other => return Err(CodecError::BadTag(other)),
    })
}

/// Encode a full job profile into a cell value.
pub fn encode_profile(p: &JobProfile) -> Bytes {
    let mut b = BytesMut::with_capacity(512);
    put_str(&mut b, &p.job_id);
    put_str(&mut b, &p.dataset);
    b.put_f64(p.input_bytes);
    b.put_u32(p.num_map_tasks);
    b.put_f64(p.confidence);
    encode_map_profile(&mut b, &p.map);
    match &p.reduce {
        Some(r) => {
            b.put_u8(1);
            encode_reduce_profile(&mut b, r);
        }
        None => b.put_u8(0),
    }
    b.freeze()
}

fn encode_map_profile(b: &mut BytesMut, m: &MapProfile) {
    put_str(b, &m.source_job);
    put_str(b, &m.dataset);
    b.put_f64(m.input_bytes_total);
    b.put_f64(m.input_bytes_per_task);
    b.put_f64(m.input_records_per_task);
    b.put_f64(m.avg_input_record_bytes);
    b.put_f64(m.avg_intermediate_record_bytes);
    b.put_f64(m.size_selectivity);
    b.put_f64(m.pairs_selectivity);
    put_opt_f64(b, m.combine_size_selectivity);
    put_opt_f64(b, m.combine_pairs_selectivity);
    b.put_f64(m.map_ops_per_record);
    put_opt_f64(b, m.combine_ops_per_record);
    put_opt_f64(b, m.combine_ref_records);
    put_opt_f64(b, m.intermediate_key_alpha);
    put_cost_factors(b, &m.cost_factors);
    b.put_u32(m.phase_ms.len() as u32);
    for (p, ms) in &m.phase_ms {
        b.put_u8(map_phase_tag(*p));
        b.put_f64(*ms);
    }
    b.put_u32(m.tasks_observed);
}

fn encode_reduce_profile(b: &mut BytesMut, r: &ReduceProfile) {
    put_str(b, &r.source_job);
    put_str(b, &r.dataset);
    b.put_f64(r.in_records);
    b.put_f64(r.in_bytes);
    b.put_f64(r.out_records);
    b.put_f64(r.out_bytes);
    b.put_f64(r.size_selectivity);
    b.put_f64(r.pairs_selectivity);
    b.put_f64(r.reduce_ops_per_record);
    put_cost_factors(b, &r.cost_factors);
    b.put_u32(r.phase_ms.len() as u32);
    for (p, ms) in &r.phase_ms {
        b.put_u8(reduce_phase_tag(*p));
        b.put_f64(*ms);
    }
    b.put_u32(r.tasks_observed);
}

/// Decode a job profile from a cell value.
pub fn decode_profile(bytes: &[u8]) -> Result<JobProfile, CodecError> {
    let c = &mut Cursor::new(bytes);
    let job_id = c.str()?;
    let dataset = c.str()?;
    let input_bytes = c.f64()?;
    let num_map_tasks = c.u32()?;
    let confidence = c.f64()?;
    let map = decode_map_profile(c)?;
    let reduce = match c.u8()? {
        0 => None,
        1 => Some(decode_reduce_profile(c)?),
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(JobProfile {
        job_id,
        dataset,
        input_bytes,
        num_map_tasks,
        confidence,
        map,
        reduce,
    })
}

fn decode_map_profile(c: &mut Cursor<'_>) -> Result<MapProfile, CodecError> {
    Ok(MapProfile {
        source_job: c.str()?,
        dataset: c.str()?,
        input_bytes_total: c.f64()?,
        input_bytes_per_task: c.f64()?,
        input_records_per_task: c.f64()?,
        avg_input_record_bytes: c.f64()?,
        avg_intermediate_record_bytes: c.f64()?,
        size_selectivity: c.f64()?,
        pairs_selectivity: c.f64()?,
        combine_size_selectivity: opt_f64(c)?,
        combine_pairs_selectivity: opt_f64(c)?,
        map_ops_per_record: c.f64()?,
        combine_ops_per_record: opt_f64(c)?,
        combine_ref_records: opt_f64(c)?,
        intermediate_key_alpha: opt_f64(c)?,
        cost_factors: cost_factors(c)?,
        phase_ms: c.seq(PHASE_BYTES, |c| Ok((map_phase_from(c.u8()?)?, c.f64()?)))?,
        tasks_observed: c.u32()?,
    })
}

fn decode_reduce_profile(c: &mut Cursor<'_>) -> Result<ReduceProfile, CodecError> {
    Ok(ReduceProfile {
        source_job: c.str()?,
        dataset: c.str()?,
        in_records: c.f64()?,
        in_bytes: c.f64()?,
        out_records: c.f64()?,
        out_bytes: c.f64()?,
        size_selectivity: c.f64()?,
        pairs_selectivity: c.f64()?,
        reduce_ops_per_record: c.f64()?,
        cost_factors: cost_factors(c)?,
        phase_ms: c.seq(PHASE_BYTES, |c| Ok((reduce_phase_from(c.u8()?)?, c.f64()?)))?,
        tasks_observed: c.u32()?,
    })
}

/// Encode a CFG (vertex kinds + successor lists) into a cell value.
pub fn encode_cfg(cfg: &Cfg) -> Bytes {
    let mut b = BytesMut::with_capacity(cfg.nodes.len() * 8);
    b.put_u32(cfg.nodes.len() as u32);
    for node in &cfg.nodes {
        let (tag, emits) = match node.kind {
            NodeKind::Entry => (0u8, false),
            NodeKind::Basic { emits } => (1, emits),
            NodeKind::Branch => (2, false),
            NodeKind::LoopHeader => (3, false),
            NodeKind::Exit => (4, false),
        };
        b.put_u8(tag);
        b.put_u8(emits as u8);
        b.put_u32(node.succ.len() as u32);
        for &s in &node.succ {
            b.put_u32(s as u32);
        }
    }
    b.put_u32(cfg.exit as u32);
    b.put_u32(cfg.max_loop_depth() as u32);
    b.freeze()
}

/// Decode a CFG from a cell value.
pub fn decode_cfg(bytes: &[u8]) -> Result<Cfg, CodecError> {
    let mut c = Cursor::new(bytes);
    // A node is at least `kind tag · emits flag · successor count`.
    let nodes = c.seq(6, |c| {
        let tag = c.u8()?;
        let emits = c.u8()? != 0;
        let kind = match tag {
            0 => NodeKind::Entry,
            1 => NodeKind::Basic { emits },
            2 => NodeKind::Branch,
            3 => NodeKind::LoopHeader,
            4 => NodeKind::Exit,
            other => return Err(CodecError::BadTag(other)),
        };
        let succ = c.seq(4, |c| Ok(c.u32()? as usize))?;
        Ok(Node { kind, succ })
    })?;
    let exit = c.u32()? as usize;
    let max_loop_depth = c.u32()? as usize;
    Cfg::from_parts(nodes, exit, max_loop_depth).ok_or(CodecError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::corpus;
    use mrjobs::jobs;
    use mrsim::{ClusterSpec, JobConfig};
    use profiler::collect_full_profile;

    #[test]
    fn profile_roundtrip() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let (profile, _) = collect_full_profile(
            &spec,
            &ds,
            &ClusterSpec::ec2_c1_medium_16(),
            &JobConfig::default(),
            1,
        )
        .unwrap();
        let enc = encode_profile(&profile);
        let dec = decode_profile(&enc).unwrap();
        assert_eq!(dec, profile);
    }

    #[test]
    fn map_only_profile_roundtrip() {
        let ds = corpus::random_text_1g();
        let spec = jobs::word_count();
        let (mut profile, _) = collect_full_profile(
            &spec,
            &ds,
            &ClusterSpec::ec2_c1_medium_16(),
            &JobConfig::default(),
            1,
        )
        .unwrap();
        profile.reduce = None;
        let dec = decode_profile(&encode_profile(&profile)).unwrap();
        assert!(dec.reduce.is_none());
        assert_eq!(dec, profile);
    }

    #[test]
    fn cfg_roundtrip_preserves_matching() {
        for spec in jobs::standard_suite() {
            let cfg = Cfg::from_udf(&spec.map_udf);
            let dec = decode_cfg(&encode_cfg(&cfg)).unwrap();
            assert!(dec.matches(&cfg), "{}", spec.name);
            assert_eq!(dec.node_count(), cfg.node_count());
        }
    }

    #[test]
    fn truncated_profile_errors() {
        let ds = corpus::random_text_1g();
        let (profile, _) = collect_full_profile(
            &jobs::word_count(),
            &ds,
            &ClusterSpec::ec2_c1_medium_16(),
            &JobConfig::default(),
            1,
        )
        .unwrap();
        let enc = encode_profile(&profile);
        assert!(decode_profile(&enc[..enc.len() / 2]).is_err());
    }
}
