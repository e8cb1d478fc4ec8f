"""The Privid query language: AST, programmatic builder, parser, validator."""
