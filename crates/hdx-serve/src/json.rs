//! The job wire format over the workspace's one JSON codec
//! ([`hdx_obs::json`]).
//!
//! Responses are written with [`escape`], the escaper every JSON writer in
//! the workspace shares. Submissions are read by [`parse_object`]: the
//! shared parser (linear-time and depth-capped, so a hostile body is a 400,
//! never a stack overflow) plus the wire format's *flat-object* rule. A job
//! object holds only strings, numbers, booleans and `null`; nested
//! containers are rejected with a clear error rather than half-supported.

use std::collections::BTreeMap;

pub use hdx_obs::json::escape;
use hdx_obs::json::Json;

/// Parses a submission body into a key → value map under the flat-object
/// rule: the top level is an object, no member is an array or object, and
/// every number is finite. Duplicate keys are last-wins.
///
/// Silently mis-parsing a config is worse than a 400, so anything else is
/// an error.
///
/// # Errors
/// Returns a human-readable message describing the first problem.
pub fn parse_object(text: &str) -> Result<BTreeMap<String, Json>, String> {
    let Json::Obj(members) = hdx_obs::json::parse(text)? else {
        return Err("a job submission must be a JSON object".to_string());
    };
    let mut map = BTreeMap::new();
    for (key, value) in members {
        match &value {
            Json::Arr(_) | Json::Obj(_) => {
                return Err(format!(
                    "`{key}`: nested objects/arrays are not part of the job wire format"
                ))
            }
            Json::Num(raw) if value.as_f64().is_none() => {
                return Err(format!("`{key}`: non-finite number `{raw}`"))
            }
            _ => {}
        }
        map.insert(key, value);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(raw: &str) -> Json {
        Json::Num(raw.into())
    }

    #[test]
    fn parses_a_flat_job_object() {
        let map = parse_object(
            r#"{"tenant":"acme","support":0.1,"entropy":true,"max_len":null,
                "csv":"a,b\n1,2\n"}"#,
        )
        .expect("valid object");
        assert_eq!(map["tenant"], Json::Str("acme".into()));
        assert_eq!(map["support"], num("0.1"));
        assert_eq!(map["entropy"], Json::Bool(true));
        assert_eq!(map["max_len"], Json::Null);
        assert_eq!(map["csv"], Json::Str("a,b\n1,2\n".into()));
    }

    #[test]
    fn enforces_the_flat_object_rule() {
        assert!(parse_object(r#"{"a":{"b":1}}"#)
            .unwrap_err()
            .contains("nested"));
        assert!(parse_object(r#"{"a":[1]}"#).unwrap_err().contains("nested"));
        assert!(parse_object(r#"{"a":1e999}"#)
            .unwrap_err()
            .contains("non-finite"));
        assert!(parse_object(r#"[{"a":1}]"#).unwrap_err().contains("object"));
        assert!(parse_object(r#""a""#).unwrap_err().contains("object"));
    }

    #[test]
    fn duplicate_keys_are_last_wins() {
        let map = parse_object(r#"{"a":1,"a":"two"}"#).expect("valid");
        assert_eq!(map["a"], Json::Str("two".into()));
    }

    #[test]
    fn empty_object_and_whitespace_are_fine() {
        assert!(parse_object("  { }  ").expect("valid").is_empty());
    }
}
