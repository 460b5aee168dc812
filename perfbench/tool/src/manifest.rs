//! The manifest shared by the generator, the client and the replay: one
//! tab-separated line per job, `id source engine expected tag`.
//!
//! `source` is `litmus:<name>` (a built-in benchmark, requested by name)
//! or `file:<path>` (generated `.ra` text, relative to the work
//! directory). `engine` is a full engine name (`cache-datalog`,
//! `simplified-reach`); `expected` is the reference verdict (`PENDING`
//! until the client has computed it); `tag` says which part of the
//! workload the job belongs to.

use parra_core::{EngineId, Verdict};
use std::path::Path;

/// Where a job's system comes from.
pub enum Source {
    Litmus(String),
    File(String),
}

/// One manifest line.
pub struct Job {
    pub id: String,
    pub source: Source,
    pub engine: EngineId,
    pub expected: Option<Verdict>,
    pub tag: String,
}

impl Job {
    pub fn line(&self) -> String {
        let source = match &self.source {
            Source::Litmus(name) => format!("litmus:{name}"),
            Source::File(path) => format!("file:{path}"),
        };
        let expected = self
            .expected
            .map_or("PENDING".to_string(), |v| v.to_string());
        format!(
            "{}\t{}\t{}\t{}\t{}",
            self.id, source, self.engine, expected, self.tag
        )
    }

    fn parse(line: &str) -> Result<Job, String> {
        let bad = || format!("bad manifest line `{line}`");
        let fields: Vec<&str> = line.split('\t').collect();
        let [id, source, engine, expected, tag] = fields[..] else {
            return Err(bad());
        };
        let source = if let Some(name) = source.strip_prefix("litmus:") {
            Source::Litmus(name.to_string())
        } else if let Some(path) = source.strip_prefix("file:") {
            Source::File(path.to_string())
        } else {
            return Err(bad());
        };
        let engine = match engine {
            "cache-datalog" => EngineId::CacheDatalog,
            "simplified-reach" => EngineId::SimplifiedReach,
            _ => return Err(bad()),
        };
        let expected = match expected {
            "SAFE" => Some(Verdict::Safe),
            "UNSAFE" => Some(Verdict::Unsafe),
            "PENDING" => None,
            _ => return Err(bad()),
        };
        Ok(Job {
            id: id.to_string(),
            source,
            engine,
            expected,
            tag: tag.to_string(),
        })
    }
}

/// Reads every job of a manifest file.
pub fn read(path: &Path) -> Result<Vec<Job>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.is_empty())
        .map(Job::parse)
        .collect()
}
