//! The `.nl` parser: one directive per line (tokenized by `wp_lex`), every
//! violation a line-numbered [`SpecError`].

use wp_lex::{directive_lines, split_fields, Pairs};

use crate::ast::{
    BlockSpec, ChannelDecl, Direction, Endpoint, NetlistSpec, SpecError, MAX_RELAY_STATIONS,
};

impl NetlistSpec {
    /// Parses netlist-spec text (see `docs/NETLIST_FORMAT.md` and the crate
    /// docs for the format).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] naming the 1-based offending line for:
    /// an unknown directive, a malformed field list, a duplicate block /
    /// port / channel / budget declaration, a reference to an undeclared
    /// block, port or channel, a non-numeric `relay` / `latency` / `budget`
    /// value, an unterminated quote — and line 0 for whole-spec violations
    /// (no blocks, a port unused or used twice, budget exceeded; see
    /// [`NetlistSpec::check`]).
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut spec = NetlistSpec::default();
        for (line, raw) in directive_lines(text) {
            parse_directive(&mut spec, raw)
                .map_err(|message| SpecError::Parse { line, message })?;
        }
        spec.check()
            .map_err(|message| SpecError::Parse { line: 0, message })?;
        Ok(spec)
    }
}

/// Parses one directive line into the spec under construction; the message
/// comes back without a position (the caller attaches the line number).
fn parse_directive(spec: &mut NetlistSpec, line: &str) -> Result<(), String> {
    let tokens = split_fields(line)?;
    let directive = tokens.first().map(String::as_str).unwrap_or_default();
    match directive {
        "block" => parse_block(spec, &tokens),
        "port" => parse_port(spec, &tokens),
        "channel" => parse_channel(spec, &tokens),
        "relay" => parse_relay(spec, &tokens),
        "latency" => parse_latency(spec, &tokens),
        "budget" => parse_budget(spec, &tokens),
        other => Err(format!(
            "unknown directive '{other}'; expected block, port, channel, relay, latency or budget"
        )),
    }
}

/// `block <name> kind=<kind> [key=value ...]`
fn parse_block(spec: &mut NetlistSpec, tokens: &[String]) -> Result<(), String> {
    let name = match tokens.get(1) {
        Some(name) => name.clone(),
        None => return Err("expected 'block <name> kind=<kind> ...'".to_string()),
    };
    check_name("block", &name)?;
    if spec.find_block(&name).is_some() {
        return Err(format!("duplicate block name '{name}'"));
    }
    let mut pairs = Pairs::parse(&tokens[2..])?;
    let kind = pairs
        .take("kind")
        .ok_or_else(|| format!("block '{name}' is missing kind=<kind>"))?;
    spec.blocks.push(BlockSpec {
        name,
        kind,
        attrs: pairs.into_inner(),
        inputs: Vec::new(),
        outputs: Vec::new(),
    });
    Ok(())
}

/// `port <block> in|out <name>`
fn parse_port(spec: &mut NetlistSpec, tokens: &[String]) -> Result<(), String> {
    let (block_name, direction, port) = match (tokens.get(1), tokens.get(2), tokens.get(3)) {
        (Some(b), Some(d), Some(p)) if tokens.len() == 4 => (b, d.as_str(), p.clone()),
        _ => return Err("expected 'port <block> in|out <name>'".to_string()),
    };
    check_name("port", &port)?;
    let direction = match direction {
        "in" => Direction::In,
        "out" => Direction::Out,
        other => return Err(format!("port direction '{other}'; expected in or out")),
    };
    let block = spec
        .blocks
        .iter_mut()
        .find(|b| b.name == *block_name)
        .ok_or_else(|| format!("port on undeclared block '{block_name}'"))?;
    let ports = match direction {
        Direction::In => &mut block.inputs,
        Direction::Out => &mut block.outputs,
    };
    if ports.contains(&port) {
        return Err(format!(
            "duplicate {} port '{port}' on block '{block_name}'",
            direction.label()
        ));
    }
    ports.push(port);
    Ok(())
}

/// `channel <name> from=<block>.<port> to=<block>.<port> [relay=N] [latency=L]`
fn parse_channel(spec: &mut NetlistSpec, tokens: &[String]) -> Result<(), String> {
    let name = match tokens.get(1) {
        Some(name) => name.clone(),
        None => return Err("expected 'channel <name> from=... to=...'".to_string()),
    };
    check_name("channel", &name)?;
    if spec.find_channel(&name).is_some() {
        return Err(format!("duplicate channel name '{name}'"));
    }
    let mut pairs = Pairs::parse(&tokens[2..])?;
    let from = endpoint(&name, "from", pairs.take("from"))?;
    let to = endpoint(&name, "to", pairs.take("to"))?;
    let relay_stations = match pairs.take("relay") {
        None => 0,
        Some(v) => parse_relay_count(&v)
            .map_err(|expected| format!("channel '{name}' has relay '{v}'; {expected}"))?,
    };
    let latency = match pairs.take("latency") {
        None => None,
        Some(v) => Some(
            parse_latency_periods(&v)
                .map_err(|expected| format!("channel '{name}' has latency '{v}'; {expected}"))?,
        ),
    };
    if let Some(key) = pairs.first_key() {
        return Err(format!("unknown key '{key}' for channel '{name}'"));
    }
    // Resolve eagerly so a bad reference names this line, not the
    // whole-spec check.
    let channel = ChannelDecl {
        name,
        from,
        to,
        relay_stations,
        latency,
    };
    spec.resolve(&channel.from, Direction::Out)
        .map_err(|e| format!("channel '{}': {e}", channel.name))?;
    spec.resolve(&channel.to, Direction::In)
        .map_err(|e| format!("channel '{}': {e}", channel.name))?;
    spec.channels.push(channel);
    Ok(())
}

/// `relay <channel> <count>` — overrides the channel's relay-station count.
fn parse_relay(spec: &mut NetlistSpec, tokens: &[String]) -> Result<(), String> {
    let (name, value) = two_operands(tokens, "relay <channel> <count>")?;
    let count = parse_relay_count(value)
        .map_err(|expected| format!("relay count '{value}'; {expected}"))?;
    let channel = find_channel_mut(spec, name)?;
    channel.relay_stations = count;
    Ok(())
}

/// `latency <channel> <periods>` — overrides the channel's wire latency.
fn parse_latency(spec: &mut NetlistSpec, tokens: &[String]) -> Result<(), String> {
    let (name, value) = two_operands(tokens, "latency <channel> <periods>")?;
    let latency = parse_latency_periods(value)
        .map_err(|expected| format!("latency '{value}'; {expected}"))?;
    let channel = find_channel_mut(spec, name)?;
    channel.latency = Some(latency);
    Ok(())
}

/// `budget <total>` — the total relay-station budget.
fn parse_budget(spec: &mut NetlistSpec, tokens: &[String]) -> Result<(), String> {
    let value = match tokens.get(1) {
        Some(v) if tokens.len() == 2 => v,
        _ => return Err("expected 'budget <total>'".to_string()),
    };
    if spec.budget.is_some() {
        return Err("duplicate budget directive".to_string());
    }
    let budget = parse_count(value)
        .ok_or_else(|| format!("budget '{value}'; expected a non-negative integer"))?;
    spec.budget = Some(budget);
    Ok(())
}

/// Parses a `<block>.<port>` endpoint value.
fn endpoint(channel: &str, key: &str, value: Option<String>) -> Result<Endpoint, String> {
    let value =
        value.ok_or_else(|| format!("channel '{channel}' is missing {key}=<block>.<port>"))?;
    let (block, port) = value
        .split_once('.')
        .ok_or_else(|| format!("endpoint '{value}' is not <block>.<port>"))?;
    if block.is_empty() || port.is_empty() {
        return Err(format!("endpoint '{value}' is not <block>.<port>"));
    }
    Ok(Endpoint {
        block: block.to_string(),
        port: port.to_string(),
    })
}

/// The shared `<directive> <channel> <value>` shape of `relay`/`latency`.
fn two_operands<'a>(tokens: &'a [String], usage: &str) -> Result<(&'a str, &'a str), String> {
    match (tokens.get(1), tokens.get(2)) {
        (Some(a), Some(b)) if tokens.len() == 3 => Ok((a, b)),
        _ => Err(format!("expected '{usage}'")),
    }
}

fn find_channel_mut<'a>(
    spec: &'a mut NetlistSpec,
    name: &str,
) -> Result<&'a mut ChannelDecl, String> {
    spec.channels
        .iter_mut()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("undeclared channel '{name}'"))
}

fn parse_count(value: &str) -> Option<usize> {
    value.parse::<usize>().ok()
}

/// A channel's relay-station count, at most [`MAX_RELAY_STATIONS`]; the
/// error says what was expected.
fn parse_relay_count(value: &str) -> Result<usize, String> {
    let count = parse_count(value).ok_or_else(|| "expected a non-negative integer".to_string())?;
    if count > MAX_RELAY_STATIONS {
        return Err(format!(
            "at most {MAX_RELAY_STATIONS} relay stations per channel"
        ));
    }
    Ok(count)
}

/// A channel's wire latency in clock periods.  At the unit clock period a
/// latency of `L` takes `L − 1` stations, so it is bounded by
/// [`MAX_RELAY_STATIONS`]` + 1`; a shorter clock passed to
/// [`NetlistSpec::insert_relays`] can derive more, which
/// [`NetlistSpec::check`] then rejects at lowering.
fn parse_latency_periods(value: &str) -> Result<u64, String> {
    let latency = value
        .parse::<u64>()
        .map_err(|_| "expected a non-negative integer".to_string())?;
    let max = MAX_RELAY_STATIONS as u64 + 1;
    if latency > max {
        return Err(format!(
            "at most {max} clock periods ({MAX_RELAY_STATIONS} relay stations) per channel"
        ));
    }
    Ok(latency)
}

/// Names travel through endpoints (`<block>.<port>`) and `key=value`
/// attributes, so they may not contain the separator characters.
fn check_name(what: &str, name: &str) -> Result<(), String> {
    if name.contains('.') || name.contains('=') {
        return Err(format!("{what} name '{name}' may not contain '.' or '='"));
    }
    Ok(())
}
