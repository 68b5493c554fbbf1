//! A reader that closes the pipe early (`nice run … | head`) ends the
//! command quietly: no panic text on stderr, and not the 101 of a panic,
//! but 141, the status of a program SIGPIPE killed.

use std::process::Command;

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let commands: [&[&str]; 3] = [
        &["run", "ping:2", "--max-transitions", "0"],
        &["run", "chain:3:1", "--json", "--quiet"],
        &["list"],
    ];
    for args in commands {
        // The read end is closed before the command starts, so its first
        // write to stdout fails, whatever the timing.
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let output = Command::new(env!("CARGO_BIN_EXE_nice"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("nice starts");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(141), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
